package eval

import (
	"context"
	"fmt"
	"strings"

	"noelle/internal/bench"
	"noelle/internal/core"
	"noelle/internal/tool"

	// Populate the tool registry the matrix is driven through.
	_ "noelle/internal/tools"
)

// table4Columns lists the abstractions in the paper's column order.
var table4Columns = []core.Abstraction{
	core.AbsPDG, core.AbsSCCDAG, core.AbsCG, core.AbsENV, core.AbsTask,
	core.AbsPRO, core.AbsSCD, core.AbsLoop, core.AbsLB,
	core.AbsIV, core.AbsIVS, core.AbsINV, core.AbsForest, core.AbsISL,
	core.AbsRD, core.AbsAR, core.AbsLS,
}

// table4Tools maps the paper's row labels to registry names, in the
// paper's row order.
var table4Tools = []struct {
	Label    string
	Registry string
}{
	{"HELIX", "helix"},
	{"DSWP", "dswp"},
	{"CARAT", "carat"},
	{"COOS", "coos"},
	{"PRVJ", "prvj"},
	{"DOALL", "doall"},
	{"LICM", "licm"},
	{"TIME", "timesq"},
	{"DEAD", "dead"},
	{"PERS", "perspective"},
}

// Table4Row records which abstractions a custom tool requested from the
// demand-driven manager during a real run.
type Table4Row struct {
	Tool string
	Used map[core.Abstraction]bool
}

// Table4UsageMatrix reproduces the paper's Table 4 by running every
// registered custom tool on representative benchmarks with request
// tracking on. Unlike the paper (where the matrix is written by hand),
// the matrix here is *measured*: each row is exactly what the tool pulled
// from the manager, captured by the registry's uniform Run wrapper.
func Table4UsageMatrix() ([]Table4Row, error) {
	ctx := context.Background()
	var rows []Table4Row
	for _, row := range table4Tools {
		t, ok := tool.Lookup(row.Registry)
		if !ok {
			return nil, fmt.Errorf("table4: tool %q not registered", row.Registry)
		}
		used := map[core.Abstraction]bool{}
		// canneal exercises loops, reductions, PRVGs, and
		// indirect-call-free hot paths; swaptions adds PRVG call sites.
		// Run each tool on both so every tool has real work.
		for _, benchName := range []string{"canneal", "swaptions"} {
			b, err := bench.ByName(benchName)
			if err != nil {
				return nil, err
			}
			m, err := b.Compile()
			if err != nil {
				return nil, err
			}
			opts := core.DefaultOptions()
			opts.MinHotness = 0
			n := core.New(m, opts)
			// Lowering on: the pipelining parallelizers request ENV, T, LB
			// and IVS where they use them, in Plan.Lower.
			topts := tool.DefaultOptions()
			topts.ExecutePlans = true
			rep, err := tool.Run(ctx, t, n, topts)
			if err != nil {
				return nil, fmt.Errorf("table4: %s on %s: %w", row.Registry, benchName, err)
			}
			for _, a := range rep.Abstractions {
				used[a] = true
			}
		}
		rows = append(rows, Table4Row{Tool: row.Label, Used: used})
	}
	return rows, nil
}

// FormatTable4 renders the usage matrix.
func FormatTable4(rows []Table4Row) string {
	var b strings.Builder
	b.WriteString("Table 4: abstractions requested per custom tool (measured via the demand-driven manager)\n")
	fmt.Fprintf(&b, "  %-6s", "tool")
	for _, c := range table4Columns {
		fmt.Fprintf(&b, " %-7s", c)
	}
	b.WriteString("\n")
	usedBy := map[core.Abstraction]int{}
	for _, r := range rows {
		fmt.Fprintf(&b, "  %-6s", r.Tool)
		for _, c := range table4Columns {
			mark := "."
			if r.Used[c] {
				mark = "x"
				usedBy[c]++
			}
			fmt.Fprintf(&b, " %-7s", mark)
		}
		b.WriteString("\n")
	}
	fmt.Fprintf(&b, "  %-6s", "#tools")
	for _, c := range table4Columns {
		fmt.Fprintf(&b, " %-7d", usedBy[c])
	}
	b.WriteString("\n")
	return b.String()
}

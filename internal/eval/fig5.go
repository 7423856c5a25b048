package eval

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"

	"noelle/internal/bench"
	"noelle/internal/core"
	"noelle/internal/ir"
	"noelle/internal/loops"
	"noelle/internal/profiler"
	"noelle/internal/tool"
	"noelle/internal/tools/auto"
	"noelle/internal/tools/baseline"
)

// Fig5Row is one benchmark's speedup series at a given core count.
type Fig5Row struct {
	Benchmark string
	Suite     bench.Suite
	DOALL     float64
	HELIX     float64
	DSWP      float64
	// GccPar / IccPar model the conservative industrial auto-parallelizer
	// (one legality analysis here: both extracted nothing in the paper).
	GccPar, IccPar float64
}

// Figure5Speedups reproduces Figure 5 (PARSEC + MiBench) and the Section
// 4.4 SPEC numbers, one Figure5Row per program.
func Figure5Speedups(suites []bench.Suite, cores int) ([]Fig5Row, error) {
	var rows []Fig5Row
	for _, suite := range suites {
		for _, b := range bench.BySuite(suite) {
			row, err := Figure5Row(b, cores)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", b.Name, err)
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// Figure5Row compiles, profiles and embeds b once, then fills each column
// from one competing run of the auto driver held to that column's planner
// (auto.RunWith), lowering on, on a scratch copy of the module. A loop
// counts only when the driver priced its plan under Par < Seq, lowered it
// and the comm tier accepted the result, so every cell is the driver's
// own ModeledSpeedup and at least 1; a lowering that fails verification
// fails the row.
func Figure5Row(b bench.Benchmark, cores int) (Fig5Row, error) {
	row := Fig5Row{Benchmark: b.Name, Suite: b.Suite}
	m, err := b.Compile()
	if err != nil {
		return row, err
	}
	prof, err := profiler.Collect(m)
	if err != nil {
		return row, err
	}
	prof.Embed()

	column := func(technique string, provedOnly bool) (float64, error) {
		p, ok := tool.LookupPlanner(technique) // linked in by table4.go's import of internal/tools
		if !ok {
			return 0, fmt.Errorf("no planner registered for technique %q", technique)
		}
		scratch := ir.CloneModule(m)
		if provedOnly {
			p = conservative{p, baseline.ConservativeAutoPar(scratch).Parallelized}
		}
		opts := core.DefaultOptions()
		opts.Cores = cores
		opts.MinHotness = 0.01
		topts := tool.DefaultOptions()
		topts.ExecutePlans = true
		res, err := auto.RunWith(context.Background(), core.New(scratch, opts), topts, []tool.Planner{p})
		return res.ModeledSpeedup(prof.TotalCycles), err
	}
	if row.DOALL, err = column("doall", false); err != nil {
		return row, err
	}
	if row.HELIX, err = column("helix", false); err != nil {
		return row, err
	}
	if row.DSWP, err = column("dswp", false); err != nil {
		return row, err
	}
	if row.GccPar, err = column("doall", true); err != nil {
		return row, err
	}
	row.IccPar = row.GccPar
	return row, nil
}

// conservative is the gcc/icc column's planner: the DOALL plan, for the
// loops baseline.ConservativeAutoPar proved parallel and no others.
type conservative struct {
	tool.Planner
	proved []*ir.Block
}

func (c conservative) PlanLoop(n *core.Noelle, ls *loops.LS, opts tool.Options) (tool.Plan, error) {
	if !slices.Contains(c.proved, ls.Header) {
		return nil, errors.New("not proven parallel by local, low-level reasoning")
	}
	return c.Planner.PlanLoop(n, ls, opts)
}

// FormatFigure5 renders the speedup series.
func FormatFigure5(title string, rows []Fig5Row, cores int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s (planner-modeled, lowered loops only, %d cores; not wall-clock — see `make benchmark`)\n", title, cores)
	fmt.Fprintf(&b, "  %-14s %-12s %7s %7s %7s %7s %7s\n", "benchmark", "suite", "DOALL", "HELIX", "DSWP", "gcc", "icc")
	var gD, gH, gS float64
	for _, r := range rows {
		fmt.Fprintf(&b, "  %-14s %-12s %6.2fx %6.2fx %6.2fx %6.2fx %6.2fx\n",
			r.Benchmark, r.Suite, r.DOALL, r.HELIX, r.DSWP, r.GccPar, r.IccPar)
		gD += r.DOALL
		gH += r.HELIX
		gS += r.DSWP
	}
	nf := float64(len(rows))
	fmt.Fprintf(&b, "  %-14s %-12s %6.2fx %6.2fx %6.2fx\n", "MEAN", "", gD/nf, gH/nf, gS/nf)
	return b.String()
}

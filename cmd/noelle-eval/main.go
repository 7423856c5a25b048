// noelle-eval regenerates every table and figure of the paper's
// evaluation from this repository. Each artifact is deterministic:
// wall-clock measurements live in the repository's one benchmark
// (BENCHMARK.json, `go run -C benchmark .`), not here.
//
// Usage: noelle-eval [-only table1|table2|table3|table4|fig3|fig4|goviv|fig5|spec|dead] [-cores N]
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"noelle/internal/bench"
	"noelle/internal/core"
	"noelle/internal/eval"
	"noelle/internal/toolio"
)

type artifact struct {
	name string
	gen  func(cores int) (string, error)
}

// artifacts lists the evaluation in the paper's order; the default
// sweep emits all of them.
var artifacts = []artifact{
	{"table1", func(int) (string, error) {
		return eval.FormatInventory("Table 1: NOELLE abstractions (this repo)", eval.Table1Abstractions()), nil
	}},
	{"table2", func(int) (string, error) {
		return eval.FormatInventory("Table 2: NOELLE tools (this repo)", eval.Table2Tools()), nil
	}},
	{"table3", func(int) (string, error) {
		return eval.FormatTable3(eval.Table3CustomTools()), nil
	}},
	{"table4", func(int) (string, error) {
		rows, err := eval.Table4UsageMatrix()
		if err != nil {
			return "", err
		}
		return eval.FormatTable4(rows), nil
	}},
	{"fig3", func(int) (string, error) {
		rows, err := eval.Figure3Dependences()
		if err != nil {
			return "", err
		}
		return eval.FormatFigure3(rows), nil
	}},
	{"fig4", func(int) (string, error) {
		rows, err := eval.Figure4Invariants()
		if err != nil {
			return "", err
		}
		return eval.FormatFigure4(rows), nil
	}},
	{"goviv", func(int) (string, error) {
		g, err := eval.GoverningIVs()
		if err != nil {
			return "", err
		}
		return fmt.Sprintf("Section 4.3: governing IVs across %d loops: LLVM-style %d, NOELLE %d (paper: 11 vs 385)",
			g.Loops, g.LLVMTotal, g.NoelleTotal), nil
	}},
	{"fig5", func(cores int) (string, error) {
		rows, err := eval.Figure5Speedups([]bench.Suite{bench.PARSEC, bench.MiBench}, cores)
		if err != nil {
			return "", err
		}
		return eval.FormatFigure5("Figure 5: PARSEC + MiBench program speedups", rows, cores), nil
	}},
	{"spec", func(cores int) (string, error) {
		rows, err := eval.Figure5Speedups([]bench.Suite{bench.SPEC}, cores)
		if err != nil {
			return "", err
		}
		return eval.FormatFigure5("Section 4.4: SPEC CPU2017 program speedups", rows, cores), nil
	}},
	{"dead", func(int) (string, error) {
		rows, err := eval.DeadFunctionStudy()
		if err != nil {
			return "", err
		}
		return eval.FormatDeadStudy(rows), nil
	}},
}

// defaultCores is the paper's evaluation machine.
const defaultCores = 12

func main() {
	only := flag.String("only", "", "emit a single artifact")
	cores := flag.Int("cores", defaultCores, "core count for the speedup figures")
	cpuprofile := flag.String("cpuprofile", "", "write a pprof CPU profile of the evaluation to this file")
	memprofile := flag.String("memprofile", "", "write a pprof heap profile (post-run, GC-settled) to this file")
	flag.Parse()
	if err := core.CheckCores(*cores); err != nil {
		fmt.Fprintf(os.Stderr, "noelle-eval: -cores: %v\n", err)
		os.Exit(2)
	}

	selected := artifacts
	if *only != "" {
		selected = nil
		var names []string
		for _, a := range artifacts {
			names = append(names, a.name)
			if a.name == *only {
				selected = []artifact{a}
			}
		}
		if selected == nil {
			fmt.Fprintf(os.Stderr, "noelle-eval: unknown artifact %q (valid: %s)\n", *only, strings.Join(names, ", "))
			os.Exit(2)
		}
	}

	stopProfiles, err := toolio.StartProfiles(*cpuprofile, *memprofile)
	if err != nil {
		fmt.Fprintf(os.Stderr, "error: %v\n", err)
		os.Exit(1)
	}
	defer stopProfiles()

	for _, a := range selected {
		text, err := a.gen(*cores)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: error: %v\n", a.name, err)
			os.Exit(1)
		}
		fmt.Println(text)
	}
}

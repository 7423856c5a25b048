package fuzz

import (
	"context"
	"fmt"

	"noelle/internal/bench"
	"noelle/internal/core"
	"noelle/internal/ir"
	"noelle/internal/profiler"
	"noelle/internal/tool"
	"noelle/internal/tools/auto"
)

// Subjects yields a fresh copy of every module the compiled tier's
// observation (interp.CountEdges, interp.ObserveLoops) is held to the
// walker reference on, by the profiler and machine test suites: the
// bundled corpus, the synthetic whole program, the parallel and pipeline
// programs with their DOALL, DSWP and HELIX lowerings (a dispatch inside
// an observed run), and generated programs for seeds 1..seeds.
func Subjects(seeds int, yield func(name string, m *ir.Module)) error {
	for _, b := range bench.List() {
		m, err := b.Compile()
		if err != nil {
			return fmt.Errorf("%s: %w", b.Name, err)
		}
		yield(b.Name, m)
	}
	// bench.WholeProgram at half its scale: the full one does not finish
	// inside the interpreter's default step budget, so it has no profile
	// to compare (interp's budget tests run it capped).
	whole, err := bench.Synthetic(60, 48)
	if err != nil {
		return err
	}
	yield("Synthetic(60,48)", whole)
	for _, prog := range []struct {
		name  string
		build func(int) (*ir.Module, error)
	}{{"ParallelProgram", bench.ParallelProgram}, {"PipelineProgram", bench.PipelineProgram}} {
		for _, tech := range []string{"", "doall", "dswp", "helix"} {
			m, err := prog.build(256)
			if err != nil {
				return err
			}
			if tech != "" {
				prof, err := profiler.Collect(m)
				if err != nil {
					return err
				}
				prof.Embed()
				opts := core.DefaultOptions()
				opts.Cores, opts.MinHotness = 2, 0.2
				res, err := auto.RunPinned(context.Background(), core.New(m, opts), tool.Options{ExecutePlans: true}, tech)
				if err != nil {
					return fmt.Errorf("%s/%s: %w", prog.name, tech, err)
				}
				if res.Lowered() == 0 {
					continue // the technique passes over this program
				}
			}
			yield(prog.name+"/"+tech, m)
		}
	}
	for seed := int64(1); seed <= int64(seeds); seed++ {
		p := Generate(seed, GenConfig{Blocks: 4, Arrays: 3, ArrayLen: 32})
		m, err := p.Compile()
		if err != nil {
			return err
		}
		yield(p.Name(), m)
	}
	return nil
}

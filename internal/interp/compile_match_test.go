package interp_test

import (
	"testing"

	"noelle/internal/analysis"
	"noelle/internal/bench"
	"noelle/internal/fuzz"
	"noelle/internal/interp"
	"noelle/internal/ir"
)

// TestCompileMatchesReference holds the compiler to the one it replaced
// (compile_reference_test.go): the same cfunc, compared with
// reflect.DeepEqual, for every defined function, plain, counting edges and
// observing every loop, on the corpus, the synthetic programs and their
// DOALL, DSWP and HELIX lowerings, generated programs (fuzz.Subjects) and
// bench.WholeProgram.
func TestCompileMatchesReference(t *testing.T) {
	check := func(name string, m *ir.Module) {
		t.Helper()
		if err := interp.CompileMatchesReference(m, loopRequests(m)); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	if err := fuzz.Subjects(150, check); err != nil {
		t.Fatal(err)
	}
	whole, err := bench.WholeProgram()
	if err != nil {
		t.Fatal(err)
	}
	check("WholeProgram", whole)
	for name, prog := range map[string]func(int) (*ir.Module, error){
		"ParallelProgram": bench.ParallelProgram,
		"PipelineProgram": bench.PipelineProgram,
	} {
		for _, tech := range []string{"dswp", "helix"} {
			m, err := prog(256)
			if err != nil {
				t.Fatal(err)
			}
			lowerWith(t, m, tech, 3)
			check(name+"/"+tech+"@3", m)
		}
	}
}

// loopRequests observes every natural loop of m under two segmentations:
// one segment, and the loop's instructions dealt alternately to two.
func loopRequests(m *ir.Module) []interp.LoopRequest {
	var reqs []interp.LoopRequest
	for _, f := range m.Functions {
		if f.IsDeclaration() {
			continue
		}
		for _, l := range analysis.NewLoopInfo(f).Loops {
			alt := map[*ir.Instr]int{}
			for _, b := range l.BlockList() {
				for _, in := range b.Instrs {
					alt[in] = len(alt) % 2
				}
			}
			reqs = append(reqs, interp.LoopRequest{Header: l.Header, Blocks: l.Blocks,
				Specs: []interp.SegSpec{{NumSegs: 1}, {SegmentOf: alt, NumSegs: 2}}})
		}
	}
	return reqs
}

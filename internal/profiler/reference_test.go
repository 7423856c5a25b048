package profiler_test

import (
	"fmt"
	"reflect"
	"testing"

	"noelle/internal/fuzz"
	"noelle/internal/interp"
	"noelle/internal/ir"
	"noelle/internal/irtext"
	"noelle/internal/profiler"
)

// collectOnWalker is Collect as it was before the compiled tier served
// profiles: block and edge hooks on the walker. It stays as the
// executable reference the compiled counters are checked against.
func collectOnWalker(m *ir.Module) (*profiler.Profile, error) {
	p := &profiler.Profile{
		Mod:        m,
		BlockCount: map[*ir.Block]int64{},
		EdgeCount:  map[[2]*ir.Block]int64{},
		CallCount:  map[*ir.Function]int64{},
	}
	it := interp.New(m)
	it.BlockHook = func(b *ir.Block) {
		p.BlockCount[b]++
		if b.Parent != nil && b == b.Parent.Entry() {
			p.CallCount[b.Parent]++
		}
	}
	it.EdgeHook = func(from, to *ir.Block) {
		p.EdgeCount[[2]*ir.Block{from, to}]++
	}
	code, err := it.Run()
	if err != nil {
		return nil, fmt.Errorf("profiler: training run failed: %w", err)
	}
	p.TotalCycles = it.Cycles
	p.ExitCode = code
	p.Output = it.Output.String()
	return p, nil
}

// TestCollectMatchesWalkerReference: the compiled tier's profile equals
// the hooked walker's in all six fields on every subject, and survives
// Embed, print, parse and Reload.
func TestCollectMatchesWalkerReference(t *testing.T) {
	n := 0
	err := fuzz.Subjects(150, func(name string, m *ir.Module) {
		n++
		want, err := collectOnWalker(m)
		if err != nil {
			t.Fatalf("%s: reference: %v", name, err)
		}
		got, err := profiler.Collect(m)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: compiled profile differs from the walker's (blocks %d/%d, edges %d/%d, calls %d/%d, cycles %d/%d, exit %d/%d)",
				name, len(got.BlockCount), len(want.BlockCount), len(got.EdgeCount), len(want.EdgeCount),
				len(got.CallCount), len(want.CallCount), got.TotalCycles, want.TotalCycles, got.ExitCode, want.ExitCode)
			return
		}
		got.Embed()
		back, err := irtext.Parse(ir.Print(m))
		if err != nil {
			t.Fatalf("%s: reparse: %v", name, err)
		}
		re, err := profiler.Reload(back)
		if err != nil {
			t.Fatalf("%s: reload: %v", name, err)
		}
		re.Embed()
		for _, key := range []string{"noelle.prof.blocks", "noelle.prof.edges", "noelle.prof.calls", "noelle.prof.total"} {
			if back.MD.Get(key) != m.MD.Get(key) {
				t.Errorf("%s: %s changed across the round trip", name, key)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if n < 41+1+2+150 {
		t.Errorf("only %d subjects", n)
	}
}

package eval_test

import (
	"math"
	"reflect"
	"testing"

	"noelle/internal/bench"
	"noelle/internal/eval"
	"noelle/internal/tool"
)

// TestTable4UsageMatrix: the matrix is measured, so every registered
// custom tool must show up with at least one requested abstraction. The
// auto orchestrator is the one registry entry outside the paper's table:
// it composes the other tools rather than being one of them.
func TestTable4UsageMatrix(t *testing.T) {
	rows, err := eval.Table4UsageMatrix()
	if err != nil {
		t.Fatal(err)
	}
	if want := len(tool.Names()) - 1; len(rows) != want {
		t.Errorf("got %d rows, want one per registered custom tool except auto (%d)", len(rows), want)
	}
	seen := map[string]bool{}
	for _, r := range rows {
		if seen[r.Tool] {
			t.Errorf("%s: duplicate row", r.Tool)
		}
		seen[r.Tool] = true
		if len(r.Used) == 0 {
			t.Errorf("%s: requested no abstraction", r.Tool)
		}
	}
}

// TestTable3CustomTools: every tool directory the table counts exists
// and is non-empty, the two rows with an in-repo low-level twin have a
// measured baseline, and every measured reduction lies in (0,100): a
// tool growing past its low-level baseline fails.
func TestTable3CustomTools(t *testing.T) {
	rows := eval.Table3CustomTools()
	if len(rows) != 10 {
		t.Errorf("got %d rows, want the paper's 10 custom tools", len(rows))
	}
	twins := map[string]bool{"LICM": true, "DEAD": true}
	for _, r := range rows {
		if r.MeasuredNoelle <= 0 {
			t.Errorf("%s: measured %d NOELLE lines (tool directory moved?)", r.Tool, r.MeasuredNoelle)
		}
		if twins[r.Tool] != (r.MeasuredBaseline > 0) {
			t.Errorf("%s: measured baseline %d lines, twin expected: %v", r.Tool, r.MeasuredBaseline, twins[r.Tool])
		}
		if r.MeasuredBaseline == 0 {
			continue // no twin, no reduction to bound
		}
		red := r.ReductionPercent()
		if !(red > 0 && red < 100) {
			t.Errorf("%s: reduction %.1f%%, want in (0,100)", r.Tool, red)
		}
	}
}

// TestFigure5SpeedupsDeterministic: the simulated speedups are a pure
// function of the bundled programs and the core count.
func TestFigure5SpeedupsDeterministic(t *testing.T) {
	suites := []bench.Suite{bench.PARSEC}
	first, err := eval.Figure5Speedups(suites, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(first) != len(bench.BySuite(bench.PARSEC)) {
		t.Fatalf("got %d rows for %d benchmarks", len(first), len(bench.BySuite(bench.PARSEC)))
	}
	for _, r := range first {
		for name, v := range map[string]float64{
			"DOALL": r.DOALL, "HELIX": r.HELIX, "DSWP": r.DSWP, "gcc": r.GccPar, "icc": r.IccPar,
		} {
			if !(v > 0) || math.IsInf(v, 0) {
				t.Errorf("%s: %s speedup %v, want finite and > 0", r.Benchmark, name, v)
			}
		}
	}
	second, err := eval.Figure5Speedups(suites, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, second) {
		t.Errorf("two calls disagree:\nfirst:  %+v\nsecond: %+v", first, second)
	}
}

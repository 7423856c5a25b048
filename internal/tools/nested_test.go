package tools_test

import (
	"testing"

	"noelle/internal/bench"
	"noelle/internal/interp"
	"noelle/internal/obs"
)

// TestFreqmineNestedDispatchesRunInOrder: freqmine under pinned doall is
// the corpus's one lowering whose workers dispatch again. In parallel it
// gives -seq's output, exit value, fingerprint, Steps and Cycles, and each
// dispatch that forks lanes records no more of them than DispatchWorkers:
// the nested dispatches run in order on their lanes.
func TestFreqmineNestedDispatchesRunInOrder(t *testing.T) {
	b, err := bench.ByName("freqmine")
	if err != nil {
		t.Fatal(err)
	}
	type run struct {
		exit          int64
		err, output   string
		fingerprint   uint64
		steps, cycles int64
	}
	for _, cores := range []int{2, 12} {
		m, err := b.Compile()
		if err != nil {
			t.Fatal(err)
		}
		m = lowerProfiled(t, m, "doall", cores)
		var dispatches int
		lanes := map[int]int{}
		exec := func(seq bool) run {
			it := interp.New(m)
			it.SeqDispatch, it.DispatchWorkers = seq, 2
			if !seq {
				it.Tracer = obs.NewTracer()
			}
			v, err := it.Run()
			r := run{exit: v, output: it.Output.String(), fingerprint: it.MemoryFingerprint(), steps: it.Steps, cycles: it.Cycles}
			if err != nil {
				r.err = err.Error()
			}
			if !seq {
				dispatches = len(it.Tracer.DispatchSpans())
				for _, ws := range it.WorkerStats() {
					lanes[ws.Dispatch]++
				}
			}
			return r
		}
		seq, par := exec(true), exec(false)
		if seq != par {
			t.Errorf("cores %d: -seq %+v, parallel %+v", cores, seq, par)
		}
		if seq.err != "" {
			t.Errorf("cores %d: %s", cores, seq.err)
		}
		if dispatches <= len(lanes) {
			t.Errorf("cores %d: %d dispatches, %d of them forking lanes: want some that fork none", cores, dispatches, len(lanes))
		}
		for d, n := range lanes {
			if n > 2 {
				t.Errorf("cores %d: dispatch %d recorded %d lanes, want at most 2", cores, d, n)
			}
		}
		t.Logf("cores %d: %d dispatches, %d of them forking lanes", cores, dispatches, len(lanes))
	}
}

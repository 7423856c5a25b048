package machine

import (
	"fmt"

	"noelle/internal/analysis"
	"noelle/internal/interp"
	"noelle/internal/ir"
)

// SegSpec names one plan's segmentation of a loop: the instruction →
// segment assignment and the segment count. Instructions outside the map
// are charged to segment NumSegs-1 (the parallel/default segment).
type SegSpec = interp.SegSpec

// LoopSpecs is one loop to attribute and the segmentations to split its
// per-iteration cost along. Instructions outside a spec's map are charged
// to its segment NumSegs-1 (the parallel/default segment).
type LoopSpecs struct {
	Loop  *analysis.NaturalLoop
	Specs []SegSpec
}

// AttributeLoopCosts is AttributeLoops for one loop under one
// segmentation.
func AttributeLoopCosts(m *ir.Module, nat *analysis.NaturalLoop, segmentOf map[*ir.Instr]int, numSegs int) ([]*Invocation, error) {
	all, err := AttributeLoops(m, []LoopSpecs{{nat, []SegSpec{{SegmentOf: segmentOf, NumSegs: numSegs}}}})
	if err != nil {
		return nil, err
	}
	return all[0][0], nil
}

// AttributeLoops runs the program once under the interpreter and measures,
// for every dynamic invocation of each given loop, the per-iteration cost
// of each segment under each of its specs: result[l][s] holds loop l's
// invocations attributed under loops[l].Specs[s]. Cycles spent inside calls
// made by a loop — defined callees and externs alike — are charged to the
// calling instruction's segment, so SequentialCycles of any of a loop's
// results is exactly what the run's Cycles advanced across the loop, and
// every spec of it agrees on that; only the per-segment split differs.
// Each loop's rows are what a call naming it alone returns, so one
// training run prices every candidate plan of every loop a driver
// considers. The run is on the compiled tier, with the loops' probes bound
// into their functions' op streams (interp.ObserveLoops).
func AttributeLoops(m *ir.Module, loops []LoopSpecs) ([][][]*Invocation, error) {
	reqs := make([]interp.LoopRequest, len(loops))
	for i, l := range loops {
		reqs[i] = interp.LoopRequest{Header: l.Loop.Header, Blocks: l.Loop.Blocks, Specs: l.Specs}
	}
	it := interp.New(m)
	costs, err := it.ObserveLoops(reqs)
	if err != nil {
		return nil, fmt.Errorf("machine: %w", err)
	}
	if _, err := it.Run(); err != nil {
		return nil, fmt.Errorf("machine: attribution run failed: %w", err)
	}
	out := make([][][]*Invocation, len(loops))
	for l, lc := range costs {
		out[l] = make([][]*Invocation, len(loops[l].Specs))
		for s, rows := range lc.Invocations() {
			invs := make([]Invocation, len(rows))
			for v, iters := range rows {
				invs[v].IterSegCosts = iters
				out[l][s] = append(out[l][s], &invs[v])
			}
		}
	}
	return out, nil
}

// SequentialCycles sums the sequential time over all invocations.
func SequentialCycles(invs []*Invocation) int64 {
	var t int64
	for _, inv := range invs {
		t += inv.TotalCycles()
	}
	return t
}

// SimulateAll applies sim to every invocation and sums the results.
func SimulateAll(invs []*Invocation, sim func(*Invocation) int64) int64 {
	var t int64
	for _, inv := range invs {
		t += sim(inv)
	}
	return t
}

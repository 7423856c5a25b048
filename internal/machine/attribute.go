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

// AttributeLoopCosts runs the program under the interpreter and measures,
// for every dynamic invocation of the given loop, the per-iteration cost
// of each segment. segmentOf maps the loop's instructions to segment
// indices [0, numSegs); instructions outside the map are charged to
// segment numSegs-1 (the parallel/default segment). Cycles spent inside
// calls made by the loop — defined callees and externs alike — are charged
// to the calling instruction's segment, so SequentialCycles of the result
// is exactly what the run's Cycles advanced across the loop.
func AttributeLoopCosts(m *ir.Module, nat *analysis.NaturalLoop, segmentOf map[*ir.Instr]int, numSegs int) ([]*Invocation, error) {
	all, err := AttributeLoopCostsMulti(m, nat, []SegSpec{{SegmentOf: segmentOf, NumSegs: numSegs}})
	if err != nil {
		return nil, err
	}
	return all[0], nil
}

// AttributeLoopCostsMulti measures several segmentations of the same loop
// in one interpreter run: result[i] holds the invocations attributed
// under specs[i]. Every spec observes the identical dynamic execution, so
// SequentialCycles agrees across all of them — only the per-segment
// split differs. This is what the auto-parallelizer's technique selection
// needs: one training run prices a DOALL, a DSWP, and a HELIX partition
// of the same loop simultaneously instead of paying one full program
// execution per candidate plan. The run is on the compiled tier, with the
// loop's probes bound into its function's op stream (interp.ObserveLoop).
func AttributeLoopCostsMulti(m *ir.Module, nat *analysis.NaturalLoop, specs []SegSpec) ([][]*Invocation, error) {
	if len(specs) == 0 {
		return nil, fmt.Errorf("machine: no segmentations to attribute")
	}
	it := interp.New(m)
	costs, err := it.ObserveLoop(nat.Header, nat.Blocks, specs)
	if err != nil {
		return nil, fmt.Errorf("machine: %w", err)
	}
	if _, err := it.Run(); err != nil {
		return nil, fmt.Errorf("machine: attribution run failed: %w", err)
	}
	invocations := make([][]*Invocation, len(specs))
	for i, rows := range costs.Invocations() {
		invs := make([]Invocation, len(rows))
		for v, iters := range rows {
			invs[v].IterSegCosts = iters
			invocations[i] = append(invocations[i], &invs[v])
		}
	}
	return invocations, nil
}

// AddSegmentOverhead returns a copy of inv with extra cycles added to the
// given segment of every iteration (seg < 0 addresses the last segment).
// The planners use it to price per-iteration costs their lowering adds on
// top of the original loop body: speculation validation, privatization
// redirection, per-iteration task spawning.
func AddSegmentOverhead(inv *Invocation, seg int, extra int64) *Invocation {
	out := &Invocation{IterSegCosts: make([][]int64, len(inv.IterSegCosts))}
	var n int
	for _, segs := range inv.IterSegCosts {
		n += len(segs)
	}
	flat := make([]int64, 0, n) // every row of the copy is cut from it
	for i, segs := range inv.IterSegCosts {
		at := len(flat)
		flat = append(flat, segs...)
		row := flat[at:len(flat):len(flat)]
		s := seg
		if s < 0 || s >= len(row) {
			s = len(row) - 1
		}
		row[s] += extra
		out.IterSegCosts[i] = row
	}
	return out
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

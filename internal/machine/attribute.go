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
// Each loop's rows are what a call naming it alone returns. It is
// PriceLoops' observation with a consumer that copies every invocation, so
// its memory grows with the run; a driver that only needs the prices calls
// PriceLoops.
func AttributeLoops(m *ir.Module, loops []LoopSpecs) ([][][]*Invocation, error) {
	out := make([][][]*Invocation, len(loops))
	for l, ls := range loops {
		out[l] = make([][]*Invocation, len(ls.Specs))
	}
	err := observe(m, loops, func(l, s int, rows [][]int64) {
		w := len(rows[0]) // an invocation has at least one row
		cells := make([]int64, len(rows)*w)
		inv := &Invocation{IterSegCosts: make([][]int64, len(rows))}
		for i, r := range rows {
			inv.IterSegCosts[i] = cells[i*w : (i+1)*w : (i+1)*w]
			copy(inv.IterSegCosts[i], r)
		}
		out[l][s] = append(out[l][s], inv)
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// LoopPlans is one loop to price: the segmentations of its candidate
// plans and, for each, the plan's estimate of one invocation
// (tool.Plan.EstimateInvocation).
type LoopPlans struct {
	Loop     *analysis.NaturalLoop
	Specs    []SegSpec
	Estimate []func(*Invocation) int64
}

// Price is one loop's cost over a training run: Seq its sequential cycles
// (every spec agrees on them), Par[s] the sum of Estimate[s] over its
// invocations, and the number of invocations (0: the run never entered
// the loop).
type Price struct {
	Seq         int64
	Par         []int64
	Invocations int
}

// PriceLoops runs the program once, as AttributeLoops does, and prices
// every loop under every plan as each invocation closes: result l is
// SequentialCycles and, per spec, SimulateAll with its estimate over the
// invocations AttributeLoops would return, but no row outlives its
// invocation. So one training run prices every candidate plan of every
// loop a driver considers, in memory that the open invocations bound. The
// run is on the compiled tier, with the loops' probes bound into their
// functions' op streams (interp.ObserveLoops).
func PriceLoops(m *ir.Module, loops []LoopPlans) ([]Price, error) {
	out := make([]Price, len(loops))
	specs := make([]LoopSpecs, len(loops))
	for l, lp := range loops {
		if len(lp.Estimate) != len(lp.Specs) {
			return nil, fmt.Errorf("machine: %d estimates for %d segmentations", len(lp.Estimate), len(lp.Specs))
		}
		specs[l] = LoopSpecs{Loop: lp.Loop, Specs: lp.Specs}
		out[l].Par = make([]int64, len(lp.Specs))
	}
	var inv Invocation
	err := observe(m, specs, func(l, s int, rows [][]int64) {
		p := &out[l]
		inv.IterSegCosts = rows
		if s == 0 {
			p.Seq += inv.TotalCycles()
			p.Invocations++
		}
		p.Par[s] += loops[l].Estimate[s](&inv)
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// observe is the one training run: it observes every loop under its
// specs and hands each closed invocation of loop l to consume, once per
// spec s, as views valid only during the call.
func observe(m *ir.Module, loops []LoopSpecs, consume func(l, s int, rows [][]int64)) error {
	reqs := make([]interp.LoopRequest, len(loops))
	for i, l := range loops {
		reqs[i] = interp.LoopRequest{Header: l.Loop.Header, Blocks: l.Loop.Blocks, Specs: l.Specs,
			Invocation: func(s int, rows [][]int64) { consume(i, s, rows) }}
	}
	it := interp.New(m)
	costs, err := it.ObserveLoops(reqs)
	if err != nil {
		return fmt.Errorf("machine: %w", err)
	}
	if _, err := it.Run(); err != nil {
		return fmt.Errorf("machine: attribution run failed: %w", err)
	}
	for _, lc := range costs {
		lc.Close()
	}
	return nil
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

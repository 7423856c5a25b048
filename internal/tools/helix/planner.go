package helix

import (
	"fmt"
	"slices"

	"noelle/internal/core"
	"noelle/internal/interp"
	"noelle/internal/ir"
	"noelle/internal/loops"
	"noelle/internal/machine"
	"noelle/internal/tool"
)

// planner adapts the package to the shared Planner API.
type planner struct{}

func (planner) Technique() string { return "helix" }

func (planner) PlanLoop(n *core.Noelle, ls *loops.LS, _ tool.Options) (tool.Plan, error) {
	p, err := PlanLoop(n, ls)
	if err != nil {
		return nil, err
	}
	return p, nil
}

func (p *Plan) Technique() string { return "helix" }

func (p *Plan) Describe() string {
	return fmt.Sprintf("%d sequential segments", p.NumSeq)
}

func (p *Plan) Segments() (map[*ir.Instr]int, int) {
	return p.SegmentOf, p.NumSegments()
}

// EstimateInvocation prices the schedule the lowering runs: the
// invocation's iterations are folded into blocks of the size the
// pre-header will compute for this trip count, and the blocks — not the
// iterations — go through the HELIX recurrence, so the signal latency, a
// segment's wait and fire, its carried-state reload and write-back and
// the task spawn are paid once per block. The blocks are folded into
// rows the plan keeps from one call to the next, so pricing a training
// run's invocations one by one allocates almost nothing per invocation.
func (p *Plan) EstimateInvocation(inv *machine.Invocation) int64 {
	perIter, perBlock := p.overheads()
	iters := inv.IterSegCosts
	size := int(blockSize(int64(len(iters)), p.cfg.Cores))
	nb, w := (len(iters)+size-1)/size, len(perBlock)
	p.cells = slices.Grow(p.cells[:0], nb*w)[:nb*w]
	rows := p.blocks.IterSegCosts[:0]
	for b := range nb {
		row := p.cells[b*w : (b+1)*w : (b+1)*w]
		copy(row, perBlock)
		for _, segs := range iters[b*size : min((b+1)*size, len(iters))] {
			for s, c := range segs {
				row[s] += c + perIter[s]
			}
		}
		rows = append(rows, row)
	}
	p.blocks.IterSegCosts = rows
	// One task spawn per block, charged the way the sibling planners
	// charge theirs (serially), so the techniques rank on one convention.
	return machine.SimulateHELIX(&p.blocks, p.cfg) + int64(nb)*p.cfg.PerTaskOverhead
}

// overheads is what the lowering adds to each segment, derived on first
// use: per iteration, on top of the original body, one store and one load
// (per reading phase) for every value that crosses phases, the block's
// iteration counter in every phase loop, and the loop control again in
// every phase loop after the first; per block, a sequential segment's
// wait, fire and call, and the reload and write-back of carried state.
func (p *Plan) overheads() (perIter, perBlock []int64) {
	if p.perIter != nil {
		return p.perIter, p.perBlock
	}
	ph := p.phases()
	bucket := func(q int) int {
		if q%2 == 1 {
			return q / 2
		}
		return p.NumSeq // the parallel portion
	}
	perIter = make([]int64, p.NumSegments())
	first := true
	for q := 0; q <= 2*p.NumSeq; q++ {
		if !ph.runs(q) {
			continue
		}
		perIter[bucket(q)] += interp.CostIntALU
		if !first {
			perIter[bucket(q)] += interp.CostIntALU + 2*interp.CostBranch
		}
		first = false
	}
	for _, d := range ph.cross {
		perIter[bucket(ph.pos[d])] += interp.CostIntALU + interp.CostStore
		for q := range ph.readers[d] {
			perIter[bucket(q)] += interp.CostIntALU + interp.CostLoad
		}
	}
	perBlock = make([]int64, p.NumSegments())
	for s := 0; s < p.NumSeq; s++ {
		perBlock[s] = interp.CostSignalWait + interp.CostSignalFire + 2*interp.CostCallOver
	}
	for _, phi := range p.LS.HeaderPhis() {
		if carriedPhi(p, phi) {
			perBlock[p.SegmentOf[phi]] += 2*interp.CostIntALU + interp.CostLoad + interp.CostStore
		}
	}
	p.perIter, p.perBlock = perIter, perBlock
	return perIter, perBlock
}

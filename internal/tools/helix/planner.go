package helix

import (
	"fmt"

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
// the task spawn are paid once per block. Per iteration the lowering adds,
// on top of the original body, one store and one load (per reading phase)
// for every value that crosses phases, the block's iteration counter in
// every phase loop, and the loop control again in every phase loop after
// the first.
func (p *Plan) EstimateInvocation(inv *machine.Invocation) int64 {
	ph := p.phases()
	bucket := func(q int) int {
		if q%2 == 1 {
			return q / 2
		}
		return p.NumSeq // the parallel portion
	}
	perIter := make([]int64, p.NumSegments())
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
	perBlock := make([]int64, p.NumSegments())
	for s := 0; s < p.NumSeq; s++ {
		perBlock[s] = interp.CostSignalWait + interp.CostSignalFire + 2*interp.CostCallOver
	}
	for _, phi := range p.LS.HeaderPhis() {
		if carriedPhi(p, phi) {
			perBlock[p.SegmentOf[phi]] += 2*interp.CostIntALU + interp.CostLoad + interp.CostStore
		}
	}

	iters := inv.IterSegCosts
	size := int(blockSize(int64(len(iters)), p.cfg.Cores))
	blocks := &machine.Invocation{}
	for lo := 0; lo < len(iters); lo += size {
		row := append([]int64(nil), perBlock...)
		for _, segs := range iters[lo:min(lo+size, len(iters))] {
			for s, c := range segs {
				row[s] += c + perIter[s]
			}
		}
		blocks.IterSegCosts = append(blocks.IterSegCosts, row)
	}
	// One task spawn per block, charged the way the sibling planners
	// charge theirs (serially), so the techniques rank on one convention.
	return machine.SimulateHELIX(blocks, p.cfg) +
		int64(len(blocks.IterSegCosts))*p.cfg.PerTaskOverhead
}

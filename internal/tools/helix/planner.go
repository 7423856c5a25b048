package helix

import (
	"fmt"

	"noelle/internal/core"
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

// EstimateInvocation prices the cross-iteration signal recurrence plus
// one task spawn per iteration: the HELIX lowering dispatches every
// iteration as its own task invocation, so cheap-bodied loops pay
// per-iteration dispatch overhead that the pure schedule recurrence does
// not see. Charging it here is what steers the auto-parallelizer towards
// DOALL or DSWP on such loops.
func (p *Plan) EstimateInvocation(inv *machine.Invocation) int64 {
	return machine.SimulateHELIX(inv, p.cfg) +
		int64(len(inv.IterSegCosts))*p.cfg.PerTaskOverhead
}

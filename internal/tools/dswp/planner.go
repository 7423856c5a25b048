package dswp

import (
	"fmt"

	"noelle/internal/core"
	"noelle/internal/ir"
	"noelle/internal/loops"
	"noelle/internal/machine"
	"noelle/internal/tool"
)

// planner adapts the package to the shared Planner API: stage plans are
// estimated with the pipeline recurrence over the queue-calibrated
// machine configuration, so a modeled stage boundary costs exactly what
// the executed queue runtime charges for it.
type planner struct{}

func (planner) Technique() string { return "dswp" }

func (planner) PlanLoop(n *core.Noelle, ls *loops.LS, _ tool.Options) (tool.Plan, error) {
	return PlanLoop(n, ls)
}

func (p *Plan) Technique() string { return "dswp" }

func (p *Plan) Describe() string {
	return fmt.Sprintf("%d pipeline stages", p.NumStages)
}

func (p *Plan) Segments() (map[*ir.Instr]int, int) {
	return p.SegmentOf, p.NumStages
}

// EstimateInvocation prices the pipeline recurrence plus one task spawn
// per stage (the lowering dispatches exactly NumStages workers). The
// machine configuration (AR) is asked for here, not while planning: a
// pinned run never prices a plan.
func (p *Plan) EstimateInvocation(inv *machine.Invocation) int64 {
	cfg := machine.DefaultConfig(p.n.Arch(), p.n.Opts.Cores)
	return machine.SimulateDSWP(inv, cfg) + int64(p.NumStages)*cfg.PerTaskOverhead
}

package doall

import (
	"fmt"

	"noelle/internal/core"
	"noelle/internal/ir"
	"noelle/internal/loops"
	"noelle/internal/machine"
	"noelle/internal/tool"
)

// doallChunk is the iteration chunk size the DOALL schedule distributes
// in EstimateInvocation — the price the auto driver selects on and the
// evaluation's Figure 5 prints.
const doallChunk = 8

// planner adapts the package to the shared Planner API: DOALL plans are
// the eligibility check made first-class, estimated with the chunked
// round-robin schedule recurrence.
type planner struct{}

func (planner) Technique() string { return "doall" }

func (planner) PlanLoop(n *core.Noelle, ls *loops.LS, _ tool.Options) (tool.Plan, error) {
	p, err := PlanLoop(n, ls)
	if err != nil {
		return nil, err
	}
	return p, nil
}

func (p *Plan) Technique() string { return "doall" }

func (p *Plan) Describe() string {
	return fmt.Sprintf("%d-worker chunked iterations", p.n.Opts.Cores)
}

// Segments: the whole body is one segment (iterations are independent).
func (p *Plan) Segments() (map[*ir.Instr]int, int) { return nil, 1 }

// EstimateInvocation prices the chunked round-robin schedule plus one
// task spawn per worker (the lowering dispatches exactly Cores workers).
// The machine configuration (AR) is asked for here, not while planning: a
// pinned run never prices a plan.
func (p *Plan) EstimateInvocation(inv *machine.Invocation) int64 {
	cfg := machine.DefaultConfig(p.n.Arch(), p.n.Opts.Cores)
	return machine.SimulateDOALL(inv, cfg, doallChunk) + int64(cfg.Cores)*cfg.PerTaskOverhead
}

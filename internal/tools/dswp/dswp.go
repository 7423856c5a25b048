// Package dswp is the NOELLE-based Decoupled Software Pipelining custom
// tool (paper Section 3): it distributes the SCCs of a loop's aSCCDAG
// across cores so that all instances of a given SCC stay on one core,
// creating unidirectional pipeline communication. Stages are formed by
// greedily packing SCCs in dependence order while balancing their static
// cost: the cost model's cycles of each SCC's instructions, one execution
// each — the profile decides which loops are hot enough to plan, not
// where a loop is cut.
//
// Beyond planning, the tool can lower a plan to executable form
// (taskgen.go): each stage becomes a worker function running its own
// copy of the loop control; a cross-stage SSA value the reading stage can
// compute from what it has is recomputed there, the others travel over
// the bounded queues of the internal/queue runtime a chunk of iterations
// per queue operation; and a noelle_dispatch call runs the stages
// concurrently on real cores.
package dswp

import (
	"fmt"

	"noelle/internal/core"
	"noelle/internal/interp"
	"noelle/internal/ir"
	"noelle/internal/loops"
	"noelle/internal/sccdag"
)

// Plan assigns every loop instruction to a pipeline stage.
type Plan struct {
	LS        *loops.LS
	Loop      *loops.Loop
	SegmentOf map[*ir.Instr]int
	NumStages int

	n *core.Noelle
}

// Lower rewrites the planned loop into its executable pipeline form —
// per-stage worker functions communicating over bounded queues, launched
// through noelle_dispatch under taskName — invalidating the manager's
// cached abstractions. PlanLoop only returns plans canLower accepts, so
// Lower does not check again.
func (p *Plan) Lower(taskName string) error {
	// The mechanisms the rewrite is built from.
	p.n.Use(core.AbsENV)
	p.n.Use(core.AbsTask)
	p.n.Use(core.AbsLB)
	transform(p, taskName)
	p.n.InvalidateModule()
	return nil
}

// PlanLoop plans one specific loop; a nil plan comes with the rejection
// reason. A plan is a promise: one the code generator does not cover
// (canLower) is refused here, so every plan returned can be lowered.
func PlanLoop(n *core.Noelle, ls *loops.LS) (*Plan, error) {
	l := n.Loop(ls)
	dag := l.SCCDAG
	order := dag.TopoOrder()
	if len(order) < 2 {
		return nil, fmt.Errorf("single-SCC loop: nothing to pipeline")
	}

	// Weight each SCC by its static cost (the stage balancer's input).
	weight := func(node *sccdag.Node) int64 {
		var w int64
		for _, in := range node.Instrs {
			w += interp.Cost(in)
		}
		return w
	}
	var total int64
	for _, node := range order {
		total += weight(node)
	}

	stages := n.Opts.Cores
	if stages > len(order) {
		stages = len(order)
	}
	if stages < 2 {
		return nil, fmt.Errorf("needs >= 2 cores to pipeline (have %d)", n.Opts.Cores)
	}
	target := total / int64(stages)
	if target < 1 {
		target = 1
	}

	p := &Plan{LS: ls, Loop: l, SegmentOf: map[*ir.Instr]int{}, n: n}
	stage := 0
	var acc int64
	for i, node := range order {
		for _, in := range node.Instrs {
			p.SegmentOf[in] = stage
		}
		acc += weight(node)
		// Advance when this stage is full — or when exactly enough nodes
		// remain to give each outstanding stage one node.
		nodesLeft := len(order) - i - 1
		stagesLeft := stages - stage - 1
		if stagesLeft > 0 && nodesLeft >= stagesLeft && (acc >= target || nodesLeft == stagesLeft) {
			stage++
			acc = 0
		}
	}
	p.NumStages = stage + 1
	if p.NumStages < 2 {
		return nil, fmt.Errorf("stage packing collapsed to one stage")
	}
	if err := canLower(p); err != nil {
		return nil, err
	}
	return p, nil
}

// Package helix is the NOELLE-based HELIX parallelizing custom tool
// (paper Section 3): it distributes loop iterations across cores, slicing
// each iteration into sequential segments (one per Sequential SCC of the
// aSCCDAG) that execute in iteration order across cores, while everything
// else overlaps. The tool uses PRO/FR/L to pick loops, PDG/ENV for
// live-ins and live-outs, aSCCDAG/INV/IV/RD to find the SCCs that must
// serialize, SCD to shrink the sequential segments, and AR for the
// signal latency between cores.
//
// Beyond planning, the tool can lower a plan to executable form
// (taskgen.go): each block of consecutive iterations becomes one
// dispatched task invocation, inside which the loop is distributed into
// phase loops — every sequential segment a loop of its own, bracketed
// once per block by the ticket signals of the internal/queue runtime so
// segment instances execute in iteration order across workers, the
// parallel work in loops before, between and after them. Register-carried
// sequential state is routed through signal-guarded environment cells.
package helix

import (
	"fmt"

	"noelle/internal/core"
	"noelle/internal/ir"
	"noelle/internal/loops"
	"noelle/internal/machine"
	"noelle/internal/sccdag"
	"noelle/internal/scheduler"
)

// Plan is the parallel schedule for one loop: instructions are assigned
// to sequential segments (0..NumSeq-1) or to the parallel portion
// (segment NumSeq). The machine package evaluates its timing; the
// interpreter executes iterations in order, so semantics are unchanged.
type Plan struct {
	LS   *loops.LS
	Loop *loops.Loop
	// SegmentOf maps loop instructions to their segment; unmapped
	// instructions belong to the parallel segment.
	SegmentOf map[*ir.Instr]int
	// NumSeq is the number of sequential segments.
	NumSeq int

	n   *core.Noelle
	cfg machine.Config
	ph  *phasing // the lowering's phase loops, derived on first use
}

// NumSegments includes the trailing parallel segment.
func (p *Plan) NumSegments() int { return p.NumSeq + 1 }

// ShrinkHeaders is the SCD pre-pass of the helix tool (the ablation
// toggles it through Options.Optimize): for every top-level hot loop with
// a governing IV it sinks what it legally can out of the header, so the
// sequential segment that leads every iteration is as small as possible.
// It returns the number of instructions moved. This is the only part of
// HELIX planning that touches the module, which is why it runs before
// the read-only PlanLoop rather than inside it.
func ShrinkHeaders(n *core.Noelle) int {
	moved := 0
	for _, ls := range n.HotLoops() {
		if n.Loop(ls).IVs.GoverningIV() == nil {
			continue // PlanLoop rejects the loop
		}
		lsched := scheduler.NewLoopScheduler(n.Scheduler(ls.Fn), ls)
		moved += lsched.ShrinkHeader()
		if lsched.Mutated() {
			// The scheduler's invalidation contract: code moved, so every
			// cached abstraction over the function is stale.
			n.InvalidateFunction(ls.Fn)
		}
	}
	return moved
}

// Lower rewrites the planned loop into its executable per-block form —
// one dispatched task invocation per block of iterations, each sequential
// segment a phase loop bracketed by its ticket signal, under taskName —
// invalidating the manager's cached abstractions on success. PlanLoop
// only returns plans canLower accepts, so Lower does not check again.
func (p *Plan) Lower(taskName string) error {
	// The mechanisms the rewrite is built from.
	p.n.Use(core.AbsENV)
	p.n.Use(core.AbsTask)
	p.n.Use(core.AbsLB)
	p.n.Use(core.AbsIVS)
	if err := transform(p, taskName); err != nil {
		return err
	}
	p.n.InvalidateModule()
	return nil
}

// PlanLoop plans one specific loop without touching the module (auto
// plans every candidate loop before lowering any, and prices what it
// planned); a nil plan comes with the rejection reason. A plan is a
// promise: one the code generator does not cover (canLower) is refused
// here, so every plan returned can be lowered.
func PlanLoop(n *core.Noelle, ls *loops.LS) (*Plan, error) {
	l := n.Loop(ls)
	if l.IVs.GoverningIV() == nil {
		// HELIX needs the loop control to replicate per core.
		return nil, fmt.Errorf("no governing IV to replicate per core")
	}
	p := &Plan{
		LS: ls, Loop: l, SegmentOf: map[*ir.Instr]int{}, n: n,
		// AR: signal latencies feed the schedule.
		cfg: machine.DefaultConfig(n.Arch(), n.Opts.Cores),
	}
	// One sequential segment per Sequential (non-clonable) SCC, ordered by
	// the DAG so segment signals flow forward.
	for _, node := range l.SCCDAG.TopoOrder() {
		if node.Kind != sccdag.Sequential || node.IsIV || lastValueOnly(ls, node) {
			continue
		}
		seg := p.NumSeq
		p.NumSeq++
		for _, in := range node.Instrs {
			p.SegmentOf[in] = seg
		}
	}
	// An inner loop runs whole in one phase of the lowering (a value
	// computed inside it has many instances per iteration of this loop,
	// which no phase boundary can carry), so one that holds part of a
	// segment belongs to it whole.
	for _, inner := range ls.Nat.Childs {
		seg, tied := 0, false
		inner.Instrs(func(in *ir.Instr) bool {
			if s, ok := p.SegmentOf[in]; ok && (!tied || s < seg) {
				seg, tied = s, true
			}
			return true
		})
		inner.Instrs(func(in *ir.Instr) bool {
			if _, ok := p.SegmentOf[in]; tied && !ok {
				p.SegmentOf[in] = seg
			}
			return true
		})
	}
	if err := canLower(p); err != nil {
		return nil, err
	}
	return p, nil
}

// lastValueOnly reports whether all a Sequential node carries across
// iterations is the latest value of an expression, into header phis no
// loop instruction reads. Its instances need no order: the lowering runs
// them in a parallel phase and lets the last block publish the phi.
func lastValueOnly(ls *loops.LS, node *sccdag.Node) bool {
	for _, e := range node.Carried {
		if e.Control || e.Memory || e.To.Opcode != ir.OpPhi || e.To.Parent != ls.Header || !unread(ls, e.To) {
			return false
		}
	}
	return true
}

// unread reports whether no instruction of the loop has v as an operand.
func unread(ls *loops.LS, v *ir.Instr) bool {
	read := false
	ls.Instrs(func(u *ir.Instr) bool {
		for _, op := range u.Ops {
			read = read || op == ir.Value(v)
		}
		return !read
	})
	return !read
}

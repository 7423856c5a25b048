// Package doall is the NOELLE-based DOALL parallelizing custom tool
// (paper Section 3): it selects hot loops whose aSCCDAG contains only
// Independent nodes, induction-variable cycles, and reductions, then
// rewrites each into a task function dispatched across workers. Live-ins
// flow through an Environment, reductions get per-worker private
// accumulators folded after the dispatch, and the induction variables are
// re-seeded per worker (the IVS mechanism).
package doall

import (
	"fmt"

	"noelle/internal/core"
	"noelle/internal/env"
	"noelle/internal/interp"
	"noelle/internal/ir"
	"noelle/internal/loopbuilder"
	"noelle/internal/loops"
	"noelle/internal/verify"
)

// Plan records a DOALL-eligible loop, ready to lower. Planning is
// read-only: the split between PlanLoop and Lower is what lets the
// driver score a DOALL plan against the other techniques' plans before
// committing to any rewriting.
type Plan struct {
	LS   *loops.LS
	Loop *loops.Loop

	n *core.Noelle
}

// PlanLoop checks ls for DOALL legality and canonical form; a nil plan
// comes with the rejection reason. The module is not mutated.
func PlanLoop(n *core.Noelle, ls *loops.LS) (*Plan, error) {
	l := n.Loop(ls)
	if err := Eligible(l); err != nil {
		return nil, err
	}
	return &Plan{LS: ls, Loop: l, n: n}, nil
}

// Lower rewrites the planned loop into a dispatched task named taskName,
// invalidating the manager's cached abstractions on success. It refuses
// (without corrupting the module) when an earlier lowering already
// rewrote the loop out from under the plan.
func (p *Plan) Lower(taskName string) error {
	// The mechanisms the rewrite is built from.
	p.n.Use(core.AbsENV)
	p.n.Use(core.AbsTask)
	p.n.Use(core.AbsIVS)
	p.n.Use(core.AbsLB)
	if !loopIntact(p) {
		return fmt.Errorf("loop rewritten by an earlier lowering")
	}
	if err := transform(p.n, p.Loop, taskName); err != nil {
		return err
	}
	p.n.InvalidateModule()
	return nil
}

// loopIntact reports whether the planned loop's body still lives in its
// function (earlier lowerings remove loop bodies wholesale).
func loopIntact(p *Plan) bool {
	var body []*ir.Instr
	for _, b := range p.LS.Blocks() {
		body = append(body, b.Instrs...)
	}
	return loopbuilder.InstrsAlive(p.LS.Fn, body)
}

// Eligible checks DOALL legality plus the structural canonical form the
// code generator handles (header-exiting loop with a single latch and a
// governing IV with constant step).
func Eligible(l *loops.Loop) error {
	if !l.IsDOALL() {
		return fmt.Errorf("sequential SCCs present")
	}
	ls := l.LS
	if len(ls.ExitingBlocks) != 1 || ls.ExitingBlocks[0] != ls.Header {
		return fmt.Errorf("not header-exiting")
	}
	if len(ls.Latches) != 1 || len(ls.Exits) != 1 {
		return fmt.Errorf("multiple latches or exits")
	}
	giv := l.IVs.GoverningIV()
	if giv == nil || giv.StepConst == nil || *giv.StepConst == 0 {
		return fmt.Errorf("no constant-step governing IV")
	}
	switch giv.ExitCmp.Opcode {
	case ir.OpLt, ir.OpLe, ir.OpGt, ir.OpGe, ir.OpNe:
	default:
		return fmt.Errorf("unsupported exit comparison")
	}
	// Every header phi must be an IV or a reduction.
	for _, phi := range ls.HeaderPhis() {
		if l.IVs.IVForPhi(phi) == nil && l.Reductions.ForPhi(phi) == nil {
			return fmt.Errorf("header phi %s is neither IV nor reduction", phi.Ident())
		}
	}
	// All IVs need constant steps (per-worker reseeding is affine).
	for _, iv := range l.IVs.IVs {
		if iv.StepConst == nil {
			return fmt.Errorf("IV %s has non-constant step", iv.Phi.Ident())
		}
		if len(ivUpdates(iv)) != 1 {
			return fmt.Errorf("IV %s has multiple updates", iv.Phi.Ident())
		}
	}
	// Live-outs must be reconstructible after the parallel loop.
	for _, out := range l.LiveOut {
		if !isReconstructibleLiveOut(l, out) {
			return fmt.Errorf("live-out %s is not IV-final or reduction", out.Ident())
		}
	}
	// Live-ins flow through 8-byte environment cells; function-typed
	// values have no cast and are rejected (rare).
	for _, v := range l.LiveIn {
		if v.Type().Kind == ir.FuncKind {
			return fmt.Errorf("function-typed live-in %s", v.Ident())
		}
	}
	return nil
}

func ivUpdates(iv *loops.IV) []*ir.Instr {
	var ups []*ir.Instr
	for _, in := range iv.SCC {
		if in.Opcode == ir.OpAdd || in.Opcode == ir.OpSub {
			ups = append(ups, in)
		}
	}
	return ups
}

func isReconstructibleLiveOut(l *loops.Loop, out *ir.Instr) bool {
	if out.Opcode == ir.OpPhi {
		return l.IVs.IVForPhi(out) != nil || l.Reductions.ForPhi(out) != nil
	}
	for _, r := range l.Reductions.Reductions {
		for _, in := range r.SCC {
			if in == out {
				return true
			}
		}
	}
	for _, iv := range l.IVs.IVs {
		for _, in := range iv.SCC {
			if in == out {
				return true
			}
		}
	}
	return false
}

// transform rewrites the loop into a dispatched task.
func transform(n *core.Noelle, l *loops.Loop, taskName string) error {
	ls := l.LS
	m := n.Mod
	cores := int64(n.Opts.Cores)
	giv := l.IVs.GoverningIV()

	pre := loopbuilder.EnsurePreheader(ls)
	bld := ir.NewBuilder()
	bld.SetInsertionBefore(pre.Terminator())

	// ---- trip count in the pre-header ----
	tc, err := loopbuilder.EmitTripCount(bld, giv)
	if err != nil {
		return err
	}

	// ---- environment layout ----
	eb := env.NewBuilder()
	for _, v := range l.LiveIn {
		eb.AddLiveIn(v)
	}
	tcSlot := eb.AddLiveIn(tc)
	e := eb.Build()
	liveInCells := e.NumSlots()
	redBase := map[*loops.Reduction]int{}
	cells := liveInCells
	for _, r := range l.Reductions.Reductions {
		redBase[r] = cells
		cells += int(cores)
	}

	envPtr := bld.CreateAlloca(ir.I64Type, cells, "doall.env")
	for _, s := range e.Slots {
		addr := bld.CreatePtrAdd(envPtr, ir.ConstInt(int64(s.Index)), "")
		bld.CreateStore(env.ToBits(bld, s.Value), addr)
	}

	// ---- task function ----
	task := env.NewTask(m, taskName, e)
	task.Fn.SetMD(verify.MDKind, verify.KindDoallTask)
	task.Fn.SetMD(verify.MDFamily, taskName)
	if err := buildTaskBody(l, task, e, tcSlot, redBase, cores); err != nil {
		return err
	}

	// ---- dispatch + reduction folds + live-out reconstruction ----
	dispatch := m.DeclareFunction(interp.ExternDispatch,
		ir.FuncOf(ir.VoidType, env.TaskSignature(), ir.PointerTo(ir.I64Type), ir.I64Type))
	bld.CreateCall(dispatch, []ir.Value{task.Fn, envPtr, ir.ConstInt(cores)}, "")

	finals := map[*ir.Instr]ir.Value{} // in-loop def -> post-loop value
	for _, r := range l.Reductions.Reductions {
		acc := ir.Value(r.Start)
		for w := int64(0); w < cores; w++ {
			addr := bld.CreatePtrAdd(envPtr, ir.ConstInt(int64(redBase[r])+w), "")
			raw := bld.CreateLoad(addr, "")
			part := env.FromBits(bld, raw, r.Phi.Ty)
			acc = bld.CreateBinOp(r.Op, acc, part, fmt.Sprintf("red.fold%d", w))
		}
		for _, in := range r.SCC {
			finals[in] = acc
		}
	}
	for _, iv := range l.IVs.IVs {
		stepC := *iv.StepConst
		mul := bld.CreateBinOp(ir.OpMul, tc, ir.ConstInt(stepC), "")
		fin := bld.CreateBinOp(ir.OpAdd, iv.Start, mul, "iv.final")
		for _, in := range iv.SCC {
			finals[in] = fin
		}
	}

	// ---- rewire the CFG around the dead loop ----
	loopbuilder.ReplaceLoop(ls, pre, finals)
	return nil
}

func operandInSCC(iv *loops.IV, v ir.Value) bool {
	in, ok := v.(*ir.Instr)
	if !ok {
		return false
	}
	for _, x := range iv.SCC {
		if x == in {
			return true
		}
	}
	return false
}

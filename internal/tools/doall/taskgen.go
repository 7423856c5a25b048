package doall

import (
	"noelle/internal/env"
	"noelle/internal/ir"
	"noelle/internal/loopbuilder"
	"noelle/internal/loops"
)

// buildTaskBody fills in the task function: compute this worker's
// contiguous iteration range from the trip count tc, clone the loop body
// with per-worker IV seeds and private reduction accumulators, and store
// the partial reductions (cells redBase + i*cores + worker) on exit.
func buildTaskBody(l *loops.Loop, task *env.Task, tc ir.Value, redBase, cores int) {
	ls := l.LS
	giv := l.IVs.GoverningIV()
	step := *giv.StepConst
	b := loopbuilder.NewBody(task, ls)
	bld := b.Bld

	// Worker iteration range [lo, hi).
	tc = b.Map(tc)
	per1 := bld.CreateBinOp(ir.OpAdd, tc, ir.ConstInt(int64(cores-1)), "")
	per := bld.CreateBinOp(ir.OpDiv, per1, ir.ConstInt(int64(cores)), "per")
	lo := bld.CreateBinOp(ir.OpMul, task.WorkerID, per, "lo")
	hiRaw := bld.CreateBinOp(ir.OpAdd, lo, per, "")
	over := bld.CreateCmp(ir.OpGt, hiRaw, tc, "")
	hi := bld.CreateSelect(over, tc, hiRaw, "hi")

	// Per-worker IV seeds: start_j + lo*step_j; governing bound:
	// start + hi*step.
	ivSeed := map[*loops.IV]ir.Value{}
	for _, iv := range l.IVs.IVs {
		ivSeed[iv] = b.SeedIV(iv, lo)
	}
	hiOffs := bld.CreateBinOp(ir.OpMul, hi, ir.ConstInt(step), "")
	hiVal := bld.CreateBinOp(ir.OpAdd, b.Map(giv.Start), hiOffs, "hival")

	b.Clone(nil)
	b.Wire()

	// Header phis: re-seed entry incomings (IVs from the worker range,
	// reductions from the identity).
	for _, phi := range ls.HeaderPhis() {
		if iv := l.IVs.IVForPhi(phi); iv != nil {
			b.EnterWith(phi, ivSeed[iv])
		} else if r := l.Reductions.ForPhi(phi); r != nil {
			b.EnterWith(phi, r.Identity)
		}
	}

	// Rewrite the governing exit comparison against the worker bound.
	ncmp := b.Instr(giv.ExitCmp)
	ncmp.Opcode = ir.OpLt
	if step < 0 {
		ncmp.Opcode = ir.OpGt
	}
	// The original compare may test the phi or another SCC member; use the
	// cloned counterpart of whichever SCC value it tested.
	tested := giv.Phi
	for _, cop := range giv.ExitCmp.Ops {
		if giv.InCycle(cop) {
			tested = cop.(*ir.Instr)
		}
	}
	ncmp.Ops = []ir.Value{b.Instr(tested), hiVal}

	// done: publish this worker's partial reductions, then return.
	bld.SetInsertionBlock(b.Done)
	for i, r := range l.Reductions.Reductions {
		cell := bld.CreateBinOp(ir.OpAdd, ir.ConstInt(int64(redBase+i*cores)), task.WorkerID, "")
		addr := bld.CreatePtrAdd(task.EnvPtr, cell, "red.cell")
		bld.CreateStore(env.ToBits(bld, b.Instr(r.Phi)), addr)
	}
	bld.CreateRet(nil)
}

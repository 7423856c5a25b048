package doall

import (
	"noelle/internal/env"
	"noelle/internal/ir"
	"noelle/internal/loopbuilder"
	"noelle/internal/loops"
)

// buildTaskBody fills in the task function: load live-ins from the
// environment, compute this worker's contiguous iteration range, clone the
// loop body with per-worker IV seeds and private reduction accumulators,
// and store the partial reductions back on exit.
func buildTaskBody(l *loops.Loop, task *env.Task, e *env.Environment, tcSlot *env.Slot, redBase map[*loops.Reduction]int, cores int64) error {
	ls := l.LS
	giv := l.IVs.GoverningIV()
	step := *giv.StepConst

	entry := task.Fn.NewBlock("entry")
	bld := ir.NewBuilder()
	bld.SetInsertionBlock(entry)

	// Live-in loads, typed back from the raw cells.
	remap := task.LoadLiveIns(bld)
	mapVal := func(v ir.Value) ir.Value {
		if nv, ok := remap[v]; ok {
			return nv
		}
		return v
	}

	// Worker iteration range [lo, hi).
	tc := remap[tcSlot.Value]
	per1 := bld.CreateBinOp(ir.OpAdd, tc, ir.ConstInt(cores-1), "")
	per := bld.CreateBinOp(ir.OpDiv, per1, ir.ConstInt(cores), "per")
	lo := bld.CreateBinOp(ir.OpMul, task.WorkerID, per, "lo")
	hiRaw := bld.CreateBinOp(ir.OpAdd, lo, per, "")
	over := bld.CreateCmp(ir.OpGt, hiRaw, tc, "")
	hi := bld.CreateSelect(over, tc, hiRaw, "hi")

	// Per-worker IV seeds: start_j + lo*step_j; governing bound:
	// start + hi*step.
	ivSeed := map[*loops.IV]ir.Value{}
	for _, iv := range l.IVs.IVs {
		s := *iv.StepConst
		offs := bld.CreateBinOp(ir.OpMul, lo, ir.ConstInt(s), "")
		ivSeed[iv] = bld.CreateBinOp(ir.OpAdd, mapVal(iv.Start), offs, "seed")
	}
	hiOffs := bld.CreateBinOp(ir.OpMul, hi, ir.ConstInt(step), "")
	hiVal := bld.CreateBinOp(ir.OpAdd, mapVal(giv.Start), hiOffs, "hival")

	// Clone the loop body.
	bmap := map[*ir.Block]*ir.Block{}
	imap := map[*ir.Instr]*ir.Instr{}
	loopBlocks := ls.Blocks()
	for _, b := range loopBlocks {
		bmap[b] = task.Fn.NewBlock("t." + b.Nam)
	}
	done := task.Fn.NewBlock("done")

	for _, b := range loopBlocks {
		nb := bmap[b]
		for _, in := range b.Instrs {
			imap[in] = loopbuilder.CloneShell(in, nb)
		}
	}
	remapOperand := func(v ir.Value) ir.Value {
		if in, ok := v.(*ir.Instr); ok {
			if ni, cloned := imap[in]; cloned {
				return ni
			}
		}
		return mapVal(v)
	}
	for _, b := range loopBlocks {
		for _, in := range b.Instrs {
			ni := imap[in]
			for _, op := range in.Ops {
				ni.Ops = append(ni.Ops, remapOperand(op))
			}
			for _, tb := range in.Blocks {
				if nb, inLoop := bmap[tb]; inLoop {
					ni.Blocks = append(ni.Blocks, nb)
				} else {
					ni.Blocks = append(ni.Blocks, done) // exit edge
				}
			}
		}
	}

	// Header phis: re-seed entry incomings (IVs from the worker range,
	// reductions from the identity).
	header := bmap[ls.Header]
	for _, phi := range ls.HeaderPhis() {
		np := imap[phi]
		for i, b := range phi.Blocks {
			if nb, inLoop := bmap[b]; inLoop {
				np.Blocks[i] = nb
				continue
			}
			// Entry edge.
			np.Blocks[i] = entry
			if iv := l.IVs.IVForPhi(phi); iv != nil {
				np.Ops[i] = ivSeed[iv]
			} else if r := l.Reductions.ForPhi(phi); r != nil {
				np.Ops[i] = r.Identity
			}
		}
	}

	// Rewrite the governing exit comparison against the worker bound.
	ncmp := imap[giv.ExitCmp]
	op := ir.OpLt
	if step < 0 {
		op = ir.OpGt
	}
	ncmp.Opcode = op
	var clonedPhiVal ir.Value = imap[giv.Phi]
	// The original compare may test the phi or another SCC member; use the
	// cloned counterpart of whichever SCC value it tested.
	for _, cop := range giv.ExitCmp.Ops {
		if in, ok := cop.(*ir.Instr); ok {
			if ni, cloned := imap[in]; cloned && operandInSCC(giv, in) {
				clonedPhiVal = ni
			}
		}
	}
	ncmp.Ops = []ir.Value{clonedPhiVal, hiVal}

	bld.CreateBr(header)

	// done: publish this worker's partial reductions, then return.
	bld.SetInsertionBlock(done)
	for _, r := range l.Reductions.Reductions {
		cellBase := int64(redBase[r])
		cell := bld.CreateBinOp(ir.OpAdd, ir.ConstInt(cellBase), task.WorkerID, "")
		addr := bld.CreatePtrAdd(task.EnvPtr, cell, "red.cell")
		bld.CreateStore(env.ToBits(bld, ir.Value(imap[r.Phi])), addr)
	}
	bld.CreateRet(nil)
	return nil
}

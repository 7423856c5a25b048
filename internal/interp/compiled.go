// The compiled tier's back half: execute a cfunc's direct-threaded ops.
// The loop keeps the walker's contract exactly — same step-budget
// outcome, same Steps/Cycles, same error messages — while doing the
// per-instruction work against a slot frame instead of a map, with
// operands, costs, and control flow pre-resolved by compile.go. It checks
// the budget and charges the counters once per op segment (compile.go);
// a segment the budget would cut runs op by op through the walker's own
// per-instruction check instead.

package interp

import (
	"errors"
	"math"

	"noelle/internal/ir"
)

// applyEdge performs one compiled CFG edge's phi parallel assignment and
// charges the phis' steps/cycles, as the walker does on block entry.
func (it *Interp) applyEdge(fr []uint64, cf *cfunc, e *cedge) {
	if e.scratch {
		// Two-phase: read every incoming value into the scratch area
		// before any destination is written (parallel assignment).
		s := cf.scratch
		for i := range e.moves {
			fr[s+int32(i)] = fr[e.moves[i].src]
		}
		for i := range e.moves {
			fr[e.moves[i].dst] = fr[s+int32(i)]
		}
	} else {
		for i := range e.moves {
			fr[e.moves[i].dst] = fr[e.moves[i].src]
		}
	}
	it.Steps += e.steps
	it.Cycles += e.cycles
}

// execCompiled runs one compiled function body over this context. The
// frame comes off the context's value stack and the body's allocas off
// its stack in memory, both popped on return, so a call allocates nothing.
func (it *Interp) execCompiled(cf *cfunc, args []uint64) (uint64, error) {
	base, sp := len(it.stack), it.sp
	fr := it.push(int(cf.frameLen))
	clear(fr[copy(fr, args):cf.pool])
	copy(fr[cf.pool:], cf.consts)
	r, err := it.runCompiled(cf, fr)
	it.stack, it.sp = it.stack[:base], sp
	return r, err
}

// push extends the value stack by n slots and returns them. Frames and
// argument vectors are cut from it in call order and dropped by
// truncating it on return. When the stack has to move, the slots already
// handed out keep living in the old array through the slices that were
// cut from it, so nothing is copied over: the new array's lower part is
// never read.
func (it *Interp) push(n int) []uint64 {
	base := len(it.stack)
	if base+n > cap(it.stack) {
		it.stack = make([]uint64, base, max(2*cap(it.stack), base+n, 64))
	}
	it.stack = it.stack[:base+n]
	return it.stack[base : base+n : base+n]
}

// step is the walker's per-instruction accounting for one op of a segment
// the budget cuts: the budget check in front of it, then its charge. When
// the boundary falls inside a superinstruction it retires the fused
// instructions one at a time, so a failed (or pool-extended) budget stops
// Steps and Cycles exactly where the walker's check would. Stopping
// mid-op is safe: only a superinstruction's final fused instruction (the
// store, the load, the branch or the op a folded instruction rides on) has
// an observable effect, and it only runs once every check here has
// passed. A fused load from outside memory in cLoadOpStore traps right
// after it retires, in front of the next budget check, as the walker's
// does.
func (it *Interp) step(op *cop, fr []uint64) error {
	if it.Steps >= it.stepBudget() {
		if _, ok := it.extendStepBudget(); !ok {
			return ErrStepLimit
		}
	}
	if op.steps <= 1 || it.Steps+op.steps <= it.stepBudget() {
		it.Steps += op.steps
		it.Cycles += op.cost
		return nil
	}
	for i, c := range op.subCost {
		if i == len(op.subCost)-2 && op.code == cLoadOpStore {
			if p := int64(fr[op.a]); !inMemory(p) {
				return errAddress("load", p)
			}
		}
		if it.Steps >= it.stepBudget() {
			if _, ok := it.extendStepBudget(); !ok {
				return ErrStepLimit
			}
		}
		it.Steps++
		it.Cycles += c
	}
	return nil
}

// trap ends the run at op with err. A segment charged at its head (cut
// false) charged the ops after op too, and gives that back.
func (it *Interp) trap(op *cop, cut bool, err error) error {
	if !cut {
		it.Steps -= op.restSteps
		it.Cycles -= op.restCycles
	}
	return err
}

func (it *Interp) runCompiled(cf *cfunc, fr []uint64) (uint64, error) {
	// gate is 0 while segments run charged at their first op and -1 in a
	// segment the budget cuts, so one compare per op finds both a
	// segment's first op (need > 0) and every op of a cut segment.
	gate := int64(0)
	bi := int32(0)
blockLoop:
	for {
		ops := cf.blocks[bi]
		for pc := range ops {
			op := &ops[pc]
			if op.need > gate {
				if op.need != 0 {
					if gate = 0; it.Steps > it.stepBudget()-op.need {
						gate = -1
					} else {
						it.Steps += op.steps + op.restSteps
						it.Cycles += op.cost + op.restCycles
					}
				}
				if gate < 0 {
					if err := it.step(op, fr); err != nil {
						return 0, err
					}
				}
			}

			switch op.code {
			case cAdd:
				fr[op.dst] = uint64(int64(fr[op.a]) + int64(fr[op.b]))
			case cSub:
				fr[op.dst] = uint64(int64(fr[op.a]) - int64(fr[op.b]))
			case cMul:
				fr[op.dst] = uint64(int64(fr[op.a]) * int64(fr[op.b]))
			case cDiv:
				d := int64(fr[op.b])
				if d == 0 {
					return 0, it.trap(op, gate < 0, errDivByZero)
				}
				fr[op.dst] = uint64(int64(fr[op.a]) / d)
			case cRem:
				d := int64(fr[op.b])
				if d == 0 {
					return 0, it.trap(op, gate < 0, errRemByZero)
				}
				fr[op.dst] = uint64(int64(fr[op.a]) % d)
			case cAnd:
				fr[op.dst] = fr[op.a] & fr[op.b]
			case cOr:
				fr[op.dst] = fr[op.a] | fr[op.b]
			case cXor:
				fr[op.dst] = fr[op.a] ^ fr[op.b]
			case cShl:
				fr[op.dst] = uint64(int64(fr[op.a]) << (fr[op.b] & 63))
			case cShr:
				fr[op.dst] = uint64(int64(fr[op.a]) >> (fr[op.b] & 63))
			case cFAdd, cFSub, cFMul, cFDiv:
				fr[op.dst], _ = ir.Eval(op.sub, fr[op.a], fr[op.b])
			case cEq:
				fr[op.dst] = boolBits(int64(fr[op.a]) == int64(fr[op.b]))
			case cNe:
				fr[op.dst] = boolBits(int64(fr[op.a]) != int64(fr[op.b]))
			case cLt:
				fr[op.dst] = boolBits(int64(fr[op.a]) < int64(fr[op.b]))
			case cLe:
				fr[op.dst] = boolBits(int64(fr[op.a]) <= int64(fr[op.b]))
			case cGt:
				fr[op.dst] = boolBits(int64(fr[op.a]) > int64(fr[op.b]))
			case cGe:
				fr[op.dst] = boolBits(int64(fr[op.a]) >= int64(fr[op.b]))
			case cFEq, cFNe, cFLt, cFLe, cFGt, cFGe:
				fr[op.dst], _ = ir.Eval(op.sub, fr[op.a], fr[op.b])
			case cSIToFP:
				fr[op.dst] = math.Float64bits(float64(int64(fr[op.a])))
			case cFPToSI:
				fr[op.dst] = uint64(int64(math.Float64frombits(fr[op.a])))
			case cBit1:
				fr[op.dst] = fr[op.a] & 1
			case cMove:
				fr[op.dst] = fr[op.a]
			case cSelect:
				pick := op.c
				if fr[op.a] != 0 {
					pick = op.b
				}
				fr[op.dst] = fr[pick]
			case cLoad:
				// pageOf inline, readCell (not inlinable) on a miss.
				p := int64(fr[op.a])
				if pg := it.pageOf(uint64(p) >> 3); pg != nil {
					fr[op.dst] = pg[uint64(p)>>3%pageCells]
				} else if v, ok := it.readCell(p); ok {
					fr[op.dst] = v
				} else {
					return 0, it.trap(op, gate < 0, errAddress("load", p))
				}
			case cStore:
				p := int64(fr[op.b])
				if pg := it.pageOf(uint64(p) >> 3); pg != nil {
					pg[uint64(p)>>3%pageCells] = fr[op.a]
				} else if !it.writeCell(p, fr[op.a]) {
					return 0, it.trap(op, gate < 0, errAddress("store", p))
				}
			case cPtrLoad:
				p := int64(fr[op.a]) + int64(fr[op.b])*op.k
				if pg := it.pageOf(uint64(p) >> 3); pg != nil {
					fr[op.dst] = pg[uint64(p)>>3%pageCells]
				} else if v, ok := it.readCell(p); ok {
					fr[op.dst] = v
				} else {
					return 0, it.trap(op, gate < 0, errAddress("load", p))
				}
			case cPtrStore:
				p := int64(fr[op.b]) + int64(fr[op.c])*op.k
				if pg := it.pageOf(uint64(p) >> 3); pg != nil {
					pg[uint64(p)>>3%pageCells] = fr[op.a]
				} else if !it.writeCell(p, fr[op.a]) {
					return 0, it.trap(op, gate < 0, errAddress("store", p))
				}
			case cPtrAdd:
				fr[op.dst] = uint64(int64(fr[op.a]) + int64(fr[op.b])*op.k)
			case cAlloca:
				addr, ok := it.alloca(op.k)
				if !ok {
					return 0, it.trap(op, gate < 0, errAlloca(resultAt(cf.fn, op.dst)))
				}
				fr[op.dst] = uint64(addr)
			case cCall:
				ci := op.call
				callee := ci.direct
				if callee == nil {
					idx := int64(fr[ci.callee])
					if idx < 0 || idx >= int64(len(it.img.fnTable)) {
						return 0, errInvalidFnID(idx)
					}
					callee = it.img.fnTable[idx]
				}
				base := len(it.stack)
				cargs := it.push(len(ci.args))
				for i := range ci.args {
					cargs[i] = fr[ci.args[i]]
				}
				r, err := it.Call(callee, cargs)
				it.stack = it.stack[:base]
				if err != nil {
					return 0, err
				}
				if op.dst >= 0 {
					fr[op.dst] = r
				}
			case cBr:
				e := &op.edges[0]
				if e.badPhiMsg != "" {
					return 0, errors.New(e.badPhiMsg)
				}
				it.applyEdge(fr, cf, e)
				bi = e.target
				continue blockLoop
			case cCondBr:
				e := &op.edges[1]
				if fr[op.a] != 0 {
					e = &op.edges[0]
				}
				if e.badPhiMsg != "" {
					return 0, errors.New(e.badPhiMsg)
				}
				it.applyEdge(fr, cf, e)
				bi = e.target
				continue blockLoop
			case cCmpBr:
				e := &op.edges[1]
				if c, _ := ir.Eval(op.sub, fr[op.a], fr[op.b]); c != 0 {
					e = &op.edges[0]
				}
				if e.badPhiMsg != "" {
					return 0, errors.New(e.badPhiMsg)
				}
				it.applyEdge(fr, cf, e)
				bi = e.target
				continue blockLoop
			case cLoadOpStore:
				p := int64(fr[op.a])
				x, ok := it.readCell(p)
				if !ok {
					// The walker traps at the load: give back the binop
					// and the store.
					n := len(op.subCost)
					it.Steps -= 2
					it.Cycles -= op.subCost[n-2] + op.subCost[n-1]
					return 0, it.trap(op, gate < 0, errAddress("load", p))
				}
				y := fr[op.b]
				if op.rev {
					x, y = y, x
				}
				v, _ := ir.Eval(op.sub, x, y) // div/rem never fuse (fusableLoadOpStore)
				it.writeCell(p, v)
			case cRet:
				return fr[op.a], nil
			case cRetVoid:
				return 0, nil
			case cErr:
				return 0, errors.New(op.errMsg)
			case cQueuePush:
				if err := it.queuePush(int64(fr[op.a]), fr[op.b]); err != nil {
					return 0, it.trap(op, gate < 0, err)
				}
			case cQueuePop:
				v, err := it.queuePop(int64(fr[op.a]))
				if err != nil {
					return 0, it.trap(op, gate < 0, err)
				}
				fr[op.dst] = v
			case cQueuePushN:
				if err := it.queuePushN(int64(fr[op.a]), int64(fr[op.b]), int64(fr[op.c])); err != nil {
					return 0, it.trap(op, gate < 0, err)
				}
			case cQueuePopN:
				if err := it.queuePopN(int64(fr[op.a]), int64(fr[op.b]), int64(fr[op.c])); err != nil {
					return 0, it.trap(op, gate < 0, err)
				}
			case cSignalWait:
				if err := it.signalWait(int64(fr[op.a]), int64(fr[op.b])); err != nil {
					return 0, it.trap(op, gate < 0, err)
				}
			case cSignalFire:
				if err := it.img.comm.Fire(int64(fr[op.a]), int64(fr[op.b])); err != nil {
					return 0, it.trap(op, gate < 0, err)
				}
			case cCount:
				it.probes.counts.n[op.k]++
				bi = op.edges[0].target
				continue blockLoop
			case cLoopIter:
				it.probes.loops.iterate(op.k)
			case cLoopBlock:
				it.probes.loops.charge(op.k)
			case cLoopExit:
				it.probes.loops.exit(op.k)
			case cLoopCall:
				it.probes.loops.call(op.k, it.Cycles)
			case cLoopReturn:
				it.probes.loops.returned(op.k, it.Cycles)
			}
		}
		// Unreachable: every compiled block ends in a terminator or cErr.
		return 0, errors.New("interp: compiled block fell through")
	}
}

// resultAt returns f's instruction whose result has frame slot s, as the
// compiler numbers them.
func resultAt(f *ir.Function, s int32) *ir.Instr {
	next := int32(len(f.Params))
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if in.HasResult() {
				if next == s {
					return in
				}
				next++
			}
		}
	}
	return nil
}

func boolBits(c bool) uint64 {
	if c {
		return 1
	}
	return 0
}

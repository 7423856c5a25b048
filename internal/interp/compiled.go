// The compiled tier's back half: execute a cfunc's direct-threaded ops.
// The loop mirrors the walker's contract exactly — same step-budget
// check, same Steps/Cycles accounting, same error messages — it just
// does the per-instruction work against a slot frame instead of a map,
// with operands, costs, and control flow pre-resolved by compile.go.

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
			fr[s+int32(i)] = e.moves[i].src.get(fr)
		}
		for i := range e.moves {
			fr[e.moves[i].dst] = fr[s+int32(i)]
		}
	} else {
		for i := range e.moves {
			fr[e.moves[i].dst] = e.moves[i].src.get(fr)
		}
	}
	it.Steps += e.steps
	it.Cycles += e.cycles
}

// execCompiled runs one compiled function body over this context. The
// frame comes off the context's value stack, so a call allocates nothing.
func (it *Interp) execCompiled(cf *cfunc, args []uint64) (uint64, error) {
	base := len(it.stack)
	fr := it.push(int(cf.frameLen))
	clear(fr[copy(fr, args):])
	r, err := it.runCompiled(cf, fr)
	it.stack = it.stack[:base]
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

func (it *Interp) runCompiled(cf *cfunc, fr []uint64) (uint64, error) {
	var frameAllocs []int64
	if cf.nallocas > 0 {
		defer func() {
			for _, a := range frameAllocs {
				it.free(a)
			}
		}()
	}

	maxSteps := it.stepBudget()
	bi := int32(0)
blockLoop:
	for {
		ops := cf.blocks[bi]
		for pc := range ops {
			op := &ops[pc]
			if it.Steps >= maxSteps {
				var ok bool
				if maxSteps, ok = it.extendStepBudget(); !ok {
					return 0, ErrStepLimit
				}
			}
			if op.steps > 1 && it.Steps+op.steps > maxSteps {
				// The budget boundary falls inside this superinstruction:
				// retire its fused instructions one at a time so a failed
				// (or pool-extended) budget stops Steps and Cycles exactly
				// where the walker's per-instruction check would. Safe to
				// abort mid-op: only the final fused instruction (the
				// store or the branch) has an observable effect, and it
				// only runs if every check below passes. A fused load
				// from outside memory traps right after it retires, in
				// front of the next budget check, as the walker's does.
				for i, c := range op.subCost {
					if i == 1 && op.code == cLoadOpStore {
						if p := int64(op.a.get(fr)); !inMemory(p) {
							return 0, errAddress("load", p)
						}
					}
					if it.Steps >= maxSteps {
						var ok bool
						if maxSteps, ok = it.extendStepBudget(); !ok {
							return 0, ErrStepLimit
						}
					}
					it.Steps++
					it.Cycles += c
				}
			} else {
				it.Steps += op.steps
				it.Cycles += op.cost
			}

			switch op.code {
			case cAdd:
				fr[op.dst] = uint64(int64(op.a.get(fr)) + int64(op.b.get(fr)))
			case cSub:
				fr[op.dst] = uint64(int64(op.a.get(fr)) - int64(op.b.get(fr)))
			case cMul:
				fr[op.dst] = uint64(int64(op.a.get(fr)) * int64(op.b.get(fr)))
			case cDiv:
				d := int64(op.b.get(fr))
				if d == 0 {
					return 0, errDivByZero
				}
				fr[op.dst] = uint64(int64(op.a.get(fr)) / d)
			case cRem:
				d := int64(op.b.get(fr))
				if d == 0 {
					return 0, errRemByZero
				}
				fr[op.dst] = uint64(int64(op.a.get(fr)) % d)
			case cAnd:
				fr[op.dst] = op.a.get(fr) & op.b.get(fr)
			case cOr:
				fr[op.dst] = op.a.get(fr) | op.b.get(fr)
			case cXor:
				fr[op.dst] = op.a.get(fr) ^ op.b.get(fr)
			case cShl:
				fr[op.dst] = uint64(int64(op.a.get(fr)) << (op.b.get(fr) & 63))
			case cShr:
				fr[op.dst] = uint64(int64(op.a.get(fr)) >> (op.b.get(fr) & 63))
			case cFAdd, cFSub, cFMul, cFDiv:
				fr[op.dst], _ = ir.Eval(op.sub, op.a.get(fr), op.b.get(fr))
			case cEq:
				fr[op.dst] = boolBits(int64(op.a.get(fr)) == int64(op.b.get(fr)))
			case cNe:
				fr[op.dst] = boolBits(int64(op.a.get(fr)) != int64(op.b.get(fr)))
			case cLt:
				fr[op.dst] = boolBits(int64(op.a.get(fr)) < int64(op.b.get(fr)))
			case cLe:
				fr[op.dst] = boolBits(int64(op.a.get(fr)) <= int64(op.b.get(fr)))
			case cGt:
				fr[op.dst] = boolBits(int64(op.a.get(fr)) > int64(op.b.get(fr)))
			case cGe:
				fr[op.dst] = boolBits(int64(op.a.get(fr)) >= int64(op.b.get(fr)))
			case cFEq, cFNe, cFLt, cFLe, cFGt, cFGe:
				fr[op.dst], _ = ir.Eval(op.sub, op.a.get(fr), op.b.get(fr))
			case cSIToFP:
				fr[op.dst] = math.Float64bits(float64(int64(op.a.get(fr))))
			case cFPToSI:
				fr[op.dst] = uint64(int64(math.Float64frombits(op.a.get(fr))))
			case cBit1:
				fr[op.dst] = op.a.get(fr) & 1
			case cMove:
				fr[op.dst] = op.a.get(fr)
			case cSelect:
				pick := op.c
				if op.a.get(fr) != 0 {
					pick = op.b
				}
				fr[op.dst] = pick.get(fr)
			case cLoad:
				// pageOf inline, readCell (not inlinable) on a miss.
				p := int64(op.a.get(fr))
				if pg := it.pageOf(uint64(p) >> 3); pg != nil {
					fr[op.dst] = pg[uint64(p)>>3%pageCells]
				} else if v, ok := it.readCell(p); ok {
					fr[op.dst] = v
				} else {
					return 0, errAddress("load", p)
				}
			case cStore:
				p := int64(op.b.get(fr))
				if pg := it.pageOf(uint64(p) >> 3); pg != nil {
					pg[uint64(p)>>3%pageCells] = op.a.get(fr)
				} else if !it.writeCell(p, op.a.get(fr)) {
					return 0, errAddress("store", p)
				}
			case cPtrAdd:
				fr[op.dst] = uint64(int64(op.a.get(fr)) + int64(op.b.get(fr))*op.k)
			case cAlloca:
				addr := it.alloc(op.k)
				frameAllocs = append(frameAllocs, addr)
				fr[op.dst] = uint64(addr)
			case cCall:
				ci := op.call
				callee := ci.direct
				if callee == nil {
					idx := int64(ci.callee.get(fr))
					if idx < 0 || idx >= int64(len(it.img.fnTable)) {
						return 0, errInvalidFnID(idx)
					}
					callee = it.img.fnTable[idx]
				}
				base := len(it.stack)
				cargs := it.push(len(ci.args))
				for i := range ci.args {
					cargs[i] = ci.args[i].get(fr)
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
				if op.a.get(fr) != 0 {
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
				if c, _ := ir.Eval(op.sub, op.a.get(fr), op.b.get(fr)); c != 0 {
					e = &op.edges[0]
				}
				if e.badPhiMsg != "" {
					return 0, errors.New(e.badPhiMsg)
				}
				it.applyEdge(fr, cf, e)
				bi = e.target
				continue blockLoop
			case cLoadOpStore:
				p := int64(op.a.get(fr))
				x, ok := it.readCell(p)
				if !ok {
					// The walker traps at the load: retire only it.
					it.Steps -= op.steps - 1
					it.Cycles -= op.cost - op.subCost[0]
					return 0, errAddress("load", p)
				}
				y := op.b.get(fr)
				if op.rev {
					x, y = y, x
				}
				v, _ := ir.Eval(op.sub, x, y) // div/rem never fuse (fusableLoadOpStore)
				it.writeCell(p, v)
			case cRet:
				return op.a.get(fr), nil
			case cRetVoid:
				return 0, nil
			case cErr:
				return 0, errors.New(op.errMsg)
			case cQueuePush:
				if err := it.queuePush(int64(op.a.get(fr)), op.b.get(fr)); err != nil {
					return 0, err
				}
			case cQueuePop:
				v, err := it.queuePop(int64(op.a.get(fr)))
				if err != nil {
					return 0, err
				}
				fr[op.dst] = v
			case cQueuePushN:
				if err := it.queuePushN(int64(op.a.get(fr)), int64(op.b.get(fr)), int64(op.c.get(fr))); err != nil {
					return 0, err
				}
			case cQueuePopN:
				if err := it.queuePopN(int64(op.a.get(fr)), int64(op.b.get(fr)), int64(op.c.get(fr))); err != nil {
					return 0, err
				}
			case cSignalWait:
				if err := it.signalWait(int64(op.a.get(fr)), int64(op.b.get(fr))); err != nil {
					return 0, err
				}
			case cSignalFire:
				if err := it.img.comm.Fire(int64(op.a.get(fr)), int64(op.b.get(fr))); err != nil {
					return 0, err
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

func boolBits(c bool) uint64 {
	if c {
		return 1
	}
	return 0
}

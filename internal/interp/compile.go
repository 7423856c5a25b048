// The compiled tier's front half: lower one IR function to pre-bound
// direct-threaded ops. Compilation runs once per function per image
// (cached in image.progs; image.probed for an observing context's
// variant) and resolves everything that is invariant
// across calls:
//
//   - every operand is a frame slot: SSA values have their own, and the
//     constants, global addresses and function ids the body names sit in
//     a per-function pool (cfunc.consts) copied into the frame on entry,
//     so the executor never touches a map, a type switch or a branch on
//     an operand's kind;
//   - an arithmetic, compare, conversion or ptradd instruction whose
//     operands are all known at compile time is evaluated there (through
//     ir.Eval; a division by zero stays an op, so it traps where the
//     walker does): its result joins the constant pool, and its step and
//     cycles ride on the next op as a leading fused instruction;
//   - phis disappear: every CFG edge carries the successor's phi
//     parallel assignment as pre-resolved slot moves (with a scratch
//     area when a move's destination feeds another move's source);
//   - the idioms the benches are made of fuse into superinstructions:
//     compare+condbr (cCmpBr), load;binop;store-back (cLoadOpStore), and
//     a ptradd feeding only the adjacent load or store's address
//     (cPtrLoad, cPtrStore), each retiring the walker's step and cycle
//     counts for the whole idiom;
//   - cost-model cycles are pre-added per op, and per op *segment*: a run
//     of ops ending at a call, at a probe that reads Cycles (cLoopCall,
//     cLoopReturn), at cCount or at a terminator. The segment's first op
//     carries the budget headroom the run needs, and every op what the
//     ops after it in its segment cost, so the executor checks the budget
//     and charges the counters once per segment, at its first op, and a
//     trap gives back what the ops after it were charged;
//   - a direct call to noelle_queue_push/pop, their bulk forms push_n/
//     pop_n, or noelle_signal_wait/fire
//     becomes a first-class op (cQueuePush, ...) carrying the call's and
//     the extern's cost pre-summed, as long as the image's registration
//     for that name is the runtime's own and the call has its arity and
//     result shape. The op runs the same body as the generic extern
//     without building an argument vector or going through the registry.
//
// Walker-visible runtime errors (fell off block end, missing phi
// incoming) compile to cErr ops carrying the walker's exact message, so
// the tiers stay byte-identical even on those paths. A function the
// compiler cannot lower (malformed operands) is rejected — Call falls
// back to the walker, whose runtime checks are the reference behaviour
// (or fails, for a context whose observation request only this tier can
// serve: observe.go, which also describes the probe ops such a context's
// streams carry on top of everything above).

package interp

import (
	"fmt"

	"noelle/internal/ir"
)

// copcode is a compiled op's dispatch code.
type copcode uint8

const (
	cInvalid copcode = iota

	// Binary ops: dst = a <op> b.
	cAdd
	cSub
	cMul
	cDiv
	cRem
	cAnd
	cOr
	cXor
	cShl
	cShr
	cFAdd
	cFSub
	cFMul
	cFDiv
	cEq
	cNe
	cLt
	cLe
	cGt
	cGe
	cFEq
	cFNe
	cFLt
	cFLe
	cFGt
	cFGe

	// Unary conversions: dst = conv(a).
	cSIToFP
	cFPToSI
	cBit1 // zext/trunc: keep the low bit
	cMove // fbits/bitsf/p2i/i2p: raw bit reinterpretation

	cSelect // dst = a != 0 ? b : c (only the picked operand is read)
	cLoad   // dst = mem[a]
	cStore  // mem[b] = a
	cPtrAdd // dst = a + b*k
	cAlloca // dst = alloc(k), freed at frame exit
	cCall   // dst = call(payload)

	// Terminators.
	cBr     // edges[0]
	cCondBr // a != 0 ? edges[0] : edges[1]
	cRet    // return a
	cRetVoid

	// Superinstructions.
	cCmpBr       // fused compare (sub) + condbr, retires 2 steps
	cLoadOpStore // fused mem[a] = mem[a] <sub> b, retires 3 steps
	cPtrLoad     // fused ptradd + load: dst = mem[a + b*k], retires 2 steps
	cPtrStore    // fused ptradd + store: mem[b + c*k] = a, retires 2 steps

	cErr // compile-embedded runtime error (walker-identical message)

	cFolded // compile time only: an instruction folded into the pool (carry)

	// Communication ops: the runtime's own externs, bound at compile time.
	cQueuePush  // push(a, b)
	cQueuePop   // dst = pop(a)
	cSignalWait // wait(a, b)
	cSignalFire // fire(a, b)
	cQueuePushN // push_n(a, b, c)
	cQueuePopN  // pop_n(a, b, c)

	// Probes: what an observing context's streams carry and no plain stream
	// does (observe.go). Each retires no step and no cycle.
	cCount      // counts[k]++, then edges[0]: a counted edge's own block
	cLoopIter   // blocks[k]'s header entered: open an invocation or its next row, charge it
	cLoopBlock  // loop block entered: charge blocks[k]
	cLoopExit   // left exits[k]: close its invocation
	cLoopCall   // calls[k], an in-loop call, begins
	cLoopReturn // ... and has returned: charge it the cycles it ran
)

// cmove is one phi slot assignment on a CFG edge.
type cmove struct {
	dst, src int32
}

// cedge is a compiled CFG edge: the successor block plus the successor's
// phi parallel assignment pre-resolved to slot moves. steps/cycles
// charge the phis exactly as the walker does on block entry.
type cedge struct {
	target  int32
	moves   []cmove
	scratch bool // a move's dst feeds another move's src: two-phase via the scratch area
	steps   int64
	cycles  int64
	// badPhiMsg, when non-empty, makes taking this edge fail with the
	// walker's missing-phi-incoming error.
	badPhiMsg string
}

// ccall is a call op's pre-resolved payload. Direct calls are bound to
// their callee at compile time (externs re-resolve through the image's
// indexed registry inside Call, so replacement still works); indirect
// calls carry the callee operand.
type ccall struct {
	direct *ir.Function // nil: indirect via callee's bits
	callee int32
	args   []int32
}

// cop is one compiled op.
type cop struct {
	sub  ir.Op   // superinstructions: the fused compare/binop opcode
	code copcode // dispatch code
	rev  bool    // cLoadOpStore: the loaded value is the right operand
	dst  int32   // result slot, -1 when the op produces no value

	a, b, c int32 // operand slots
	k       int64 // cAlloca: byte size; cPtrAdd, cPtrLoad, cPtrStore: element size

	// need, non-zero on a segment's first op only, is the budget headroom
	// the segment runs in without a check: the walker's per-instruction
	// check cannot fire inside it while Steps <= budget-need. Such an op
	// charges the whole segment up front: its own steps and cost plus the
	// rest. restSteps and restCycles are what the ops after this one in
	// its segment charge, in advance; a trap here gives them back.
	need                  int64
	restSteps, restCycles int64

	steps int64 // instructions this op retires (superinstructions > 1)
	cost  int64 // pre-summed cost-model cycles for those instructions
	// subCost, on superinstructions only, is the per-fused-instruction
	// cycle breakdown (sum == cost): when the step-budget boundary falls
	// inside the op, the executor retires these one at a time so Steps
	// and Cycles stop exactly where the walker's would.
	subCost []int64

	edges  []cedge
	call   *ccall
	errMsg string // cErr: the walker-identical error text
}

// cfunc is one function's compiled body.
type cfunc struct {
	fn *ir.Function
	// cost is the model the per-op cycles were pre-resolved against, and
	// commGen the extern-registry generation the communication ops were
	// bound under; a context running a different model, or a replaced
	// communication extern, recompiles (see image.compiled).
	cost    CostModel
	commGen int64
	// probes is the observation bound into the stream (zero: the plain
	// stream); like cost and commGen it keys the cached body.
	probes probes
	blocks [][]cop
	// The frame is the parameters, one slot per result, the constant pool
	// (consts, copied in from slot pool on entry), then the phi-move
	// scratch area from slot scratch.
	consts   []uint64
	pool     int32
	scratch  int32
	frameLen int32
}

// simpleCop maps the plain value-producing opcodes to their compiled
// dispatch codes. Opcodes with operand layouts of their own (memory,
// calls, terminators, select, phi) are handled explicitly.
var simpleCop = map[ir.Op]copcode{
	ir.OpAdd: cAdd, ir.OpSub: cSub, ir.OpMul: cMul, ir.OpDiv: cDiv, ir.OpRem: cRem,
	ir.OpAnd: cAnd, ir.OpOr: cOr, ir.OpXor: cXor, ir.OpShl: cShl, ir.OpShr: cShr,
	ir.OpFAdd: cFAdd, ir.OpFSub: cFSub, ir.OpFMul: cFMul, ir.OpFDiv: cFDiv,
	ir.OpEq: cEq, ir.OpNe: cNe, ir.OpLt: cLt, ir.OpLe: cLe, ir.OpGt: cGt, ir.OpGe: cGe,
	ir.OpFEq: cFEq, ir.OpFNe: cFNe, ir.OpFLt: cFLt, ir.OpFLe: cFLe, ir.OpFGt: cFGt, ir.OpFGe: cFGe,
	ir.OpSIToFP: cSIToFP, ir.OpFPToSI: cFPToSI,
	ir.OpZExt: cBit1, ir.OpTrunc: cBit1,
	ir.OpFBits: cMove, ir.OpBitsF: cMove, ir.OpP2I: cMove, ir.OpI2P: cMove,
}

// compileFunc lowers f against img's layout under the given cost model,
// with the probes of pr (already narrowed to f, see probes.in) bound in.
//
// A counting stream differs from the plain one in its blocks only: block
// 0 is the function-entry counter, f's blocks follow from index 1, and
// every edge lands on a one-op block of its own that counts it and jumps
// on (the phi moves stay with the branch that takes the edge). A stream
// with observed loops opens their blocks, and the blocks they exit to,
// with a probe per loop, and brackets their in-loop calls.
func compileFunc(img *image, f *ir.Function, cost CostModel, pr probes) (*cfunc, error) {
	// Slot assignment: parameters first (so copy(frame, args) places
	// them), then every result-producing instruction in block order, then
	// the constant pool as resolve meets its entries.
	slots := map[ir.Value]int32{}
	next := int32(0)
	for _, p := range f.Params {
		slots[p] = next
		next++
	}
	first := int32(0)
	if pr.counts != nil {
		first = 1
	}
	blockIdx := map[*ir.Block]int32{}
	for bi, b := range f.Blocks {
		blockIdx[b] = first + int32(bi)
		for _, in := range b.Instrs {
			if in.HasResult() {
				slots[in] = next
				next++
			}
		}
	}

	cf := &cfunc{fn: f, cost: cost, probes: pr, pool: next}
	// known returns v's bits when they are fixed at compile time: a
	// constant, a global's address, a function id, or an instruction
	// folded below (its slot is then a pool slot).
	known := func(v ir.Value) (uint64, bool) {
		switch x := v.(type) {
		case *ir.Const:
			return x.Bits(), true
		case *ir.Global:
			return uint64(img.globalAddr[x]), true
		case *ir.Function:
			return uint64(img.fnIndex[x]), true
		case *ir.Instr:
			if s, ok := slots[x]; ok && s >= cf.pool {
				return cf.consts[s-cf.pool], true
			}
		}
		return 0, false
	}
	pooled := map[uint64]int32{}
	constant := func(bits uint64) int32 {
		s, ok := pooled[bits]
		if !ok {
			s = cf.pool + int32(len(cf.consts))
			pooled[bits] = s
			cf.consts = append(cf.consts, bits)
		}
		return s
	}
	resolve := func(v ir.Value) (int32, error) {
		switch v.(type) {
		case *ir.Const, *ir.Global, *ir.Function:
			bits, _ := known(v)
			return constant(bits), nil
		}
		s, ok := slots[v]
		if !ok {
			// An operand defined outside this function: the walker's
			// runtime undefined-value check is the reference here.
			return 0, fmt.Errorf("interp: compile @%s: unresolvable operand %s", f.Nam, v.Ident())
		}
		return s, nil
	}
	// Fold before lowering, so a use in a block listed ahead of its
	// definition's reads the pool too. An instruction folds when its
	// operands are known and it computes a value from them alone that
	// cannot trap: a ptradd, or what ir.Eval defines and accepts.
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			var v [2]uint64
			ok := len(in.Ops) <= len(v)
			for i := 0; ok && i < len(in.Ops); i++ {
				v[i], ok = known(in.Ops[i])
			}
			if !ok {
				continue
			}
			if in.Opcode == ir.OpPtrAdd {
				slots[in] = constant(uint64(int64(v[0]) + int64(v[1])*int64(in.Ty.Elem.Size())))
			} else if bits, ok := ir.Eval(in.Opcode, v[0], v[1]); ok {
				slots[in] = constant(bits)
			}
		}
	}
	operands := func(vs ...ir.Value) (refs [3]int32, err error) {
		for i, v := range vs {
			if refs[i], err = resolve(v); err != nil {
				return refs, err
			}
		}
		return refs, nil
	}

	// Use counts drive superinstruction fusion: an intermediate may only
	// fuse away when the fused op is its sole consumer.
	uses := map[*ir.Instr]int{}
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			for _, op := range in.Ops {
				if x, ok := op.(*ir.Instr); ok {
					uses[x]++
				}
			}
		}
	}

	var scratchLen int32
	plainEdge := func(from, to *ir.Block) (cedge, error) {
		e := cedge{target: blockIdx[to]}
		for _, phi := range to.Phis() {
			inc := phi.PhiIncoming(from)
			if inc == nil {
				e.moves, e.steps, e.cycles = nil, 0, 0
				e.badPhiMsg = fmt.Sprintf("interp: @%s/%s: phi %s has no incoming for %s",
					f.Nam, to.Nam, phi.Ident(), from.Nam)
				return e, nil
			}
			src, err := resolve(inc)
			if err != nil {
				return e, err
			}
			e.moves = append(e.moves, cmove{dst: slots[phi], src: src})
			e.steps++
			e.cycles += cost.Cost(phi)
		}
		// The walker reads every incoming value before assigning any
		// (parallel assignment); direct moves are only safe when no
		// destination slot feeds a later read.
		dsts := make(map[int32]bool, len(e.moves))
		for _, mv := range e.moves {
			dsts[mv.dst] = true
		}
		for _, mv := range e.moves {
			if dsts[mv.src] {
				e.scratch = true
				if n := int32(len(e.moves)); n > scratchLen {
					scratchLen = n
				}
				break
			}
		}
		return e, nil
	}
	edgeTo := plainEdge
	var counted [][]cop // the counted edges' blocks, placed after f's own
	if pr.counts != nil {
		edgeTo = func(from, to *ir.Block) (cedge, error) {
			e, err := plainEdge(from, to)
			counted = append(counted, []cop{{code: cCount, dst: -1,
				k: pr.counts.counter(from, to), edges: []cedge{{target: e.target}}}})
			e.target = first + int32(len(f.Blocks)+len(counted)-1)
			return e, err
		}
	}

	if pr.counts != nil {
		cf.blocks = append(cf.blocks, []cop{{code: cCount, dst: -1,
			k: pr.counts.counter(nil, f.Entry()), edges: []cedge{{target: first}}}})
	}
	for _, b := range f.Blocks {
		ins := b.Instrs[b.FirstNonPhi():]
		ops := make([]cop, 0, len(ins))
		if pr.loops != nil {
			ops = append(ops, pr.loops.blockProbes(b, cost)...)
		}
		for i := 0; i < len(ins); i++ {
			in := ins[i]

			if s, ok := slots[in]; ok && s >= cf.pool {
				ops = append(ops, cop{code: cFolded, dst: -1, steps: 1, cost: cost.Cost(in)})
				continue
			}

			// Superinstruction: compare feeding only the adjacent condbr.
			if in.Opcode.IsCompare() && i+1 < len(ins) && uses[in] == 1 {
				if br := ins[i+1]; br.Opcode == ir.OpCondBr && br.Ops[0] == ir.Value(in) {
					refs, err := operands(in.Ops[0], in.Ops[1])
					if err != nil {
						return nil, err
					}
					et, err := edgeTo(b, br.Blocks[0])
					if err != nil {
						return nil, err
					}
					ef, err := edgeTo(b, br.Blocks[1])
					if err != nil {
						return nil, err
					}
					ops = append(ops, fused(cop{code: cCmpBr, sub: in.Opcode, dst: -1, a: refs[0], b: refs[1],
						edges: []cedge{et, ef}}, cost, in, br))
					i++
					continue
				}
			}

			// Superinstruction: load; binop; store back to the same
			// address, intermediates consumed only inside the idiom.
			if in.Opcode == ir.OpLoad && i+2 < len(ins) && uses[in] == 1 {
				bin, st := ins[i+1], ins[i+2]
				if other, rev, ok := fusableLoadOpStore(in, bin, st, uses); ok {
					refs, err := operands(in.Ops[0], other)
					if err != nil {
						return nil, err
					}
					ops = append(ops, fused(cop{code: cLoadOpStore, sub: bin.Opcode, rev: rev, dst: -1,
						a: refs[0], b: refs[1]}, cost, in, bin, st))
					i += 2
					continue
				}
			}

			// Superinstruction: ptradd whose only use is the address of
			// the adjacent load or store.
			if in.Opcode == ir.OpPtrAdd && i+1 < len(ins) && uses[in] == 1 {
				mem, k := ins[i+1], int64(in.Ty.Elem.Size())
				if mem.Opcode == ir.OpLoad && mem.Ops[0] == ir.Value(in) {
					refs, err := operands(in.Ops[0], in.Ops[1])
					if err != nil {
						return nil, err
					}
					ops = append(ops, fused(cop{code: cPtrLoad, dst: slots[mem], a: refs[0], b: refs[1], k: k},
						cost, in, mem))
					i++
					continue
				}
				if mem.Opcode == ir.OpStore && mem.Ops[1] == ir.Value(in) {
					refs, err := operands(mem.Ops[0], in.Ops[0], in.Ops[1])
					if err != nil {
						return nil, err
					}
					ops = append(ops, fused(cop{code: cPtrStore, dst: -1, a: refs[0], b: refs[1], c: refs[2], k: k},
						cost, in, mem))
					i++
					continue
				}
			}

			op, err := compileOne(img, cf, in, b, cost, slots, resolve, edgeTo)
			if err != nil {
				return nil, err
			}
			if pr.loops != nil && in.Opcode == ir.OpCall {
				before, after := pr.loops.callProbes(in, b, cost)
				ops = append(append(append(ops, before...), op), after...)
				continue
			}
			ops = append(ops, op)
		}
		if len(ins) == 0 || !ins[len(ins)-1].IsTerminator() {
			// The walker executes the whole block, then errors; the cErr
			// op retires nothing, matching its counters exactly.
			ops = append(ops, cop{
				code: cErr, dst: -1,
				errMsg: fmt.Sprintf("interp: @%s/%s: fell off block end", f.Nam, b.Nam),
			})
		}
		cf.blocks = append(cf.blocks, carry(ops))
	}
	cf.blocks = append(cf.blocks, counted...)
	for _, ops := range cf.blocks {
		segment(ops)
	}
	cf.scratch = cf.pool + int32(len(cf.consts))
	cf.frameLen = cf.scratch + scratchLen
	return cf, nil
}

// fused completes a superinstruction: it retires every fused instruction's
// step and cycles, and keeps the per-instruction breakdown for a budget
// boundary inside it.
func fused(op cop, cost CostModel, ins ...*ir.Instr) cop {
	op.steps = int64(len(ins))
	op.subCost = make([]int64, len(ins))
	for i, in := range ins {
		op.subCost[i] = cost.Cost(in)
		op.cost += op.subCost[i]
	}
	return op
}

// carry drops the cFolded ops from a block, each one's charge riding on
// the op after it as a leading fused instruction (every block ends in a
// terminator or cErr, so there always is one).
func carry(ops []cop) []cop {
	out := ops[:0]
	var pre []int64
	for _, op := range ops {
		if op.code == cFolded {
			if pre == nil {
				pre = make([]int64, 0, 4)
			}
			pre = append(pre, op.cost)
			continue
		}
		if len(pre) > 0 {
			if op.subCost == nil && op.steps == 1 {
				op.subCost = append(pre, op.cost)
			} else {
				op.subCost = append(pre, op.subCost...)
			}
			for _, c := range pre {
				op.cost += c
			}
			op.steps += int64(len(pre))
			pre = nil
		}
		out = append(out, op)
	}
	return out
}

// endsSegment reports whether the op after this one starts a new
// segment: a call runs code that charges the counters itself, a probe
// reads Cycles or leaves the block, and a terminator leaves it.
func endsSegment(code copcode) bool {
	switch code {
	case cCall, cLoopCall, cLoopReturn, cCount,
		cBr, cCondBr, cRet, cRetVoid, cCmpBr, cErr:
		return true
	}
	return false
}

// segment fills in one block's segment accounting. The walker checks the
// budget before every instruction, and inside a superinstruction before
// every fused one; a segment runs unchecked only if none of those checks
// could fire, so its headroom is the largest prefix that must still fit:
// the steps before an op plus its own, or plus one for an op that retires
// nothing (its check sits at the prefix itself).
func segment(ops []cop) {
	for head := 0; head < len(ops); {
		end := head
		for !endsSegment(ops[end].code) {
			end++
		}
		var steps, cycles int64
		for i := end; i >= head; i-- {
			ops[i].restSteps, ops[i].restCycles = steps, cycles
			steps += ops[i].steps
			cycles += ops[i].cost
		}
		for i, prefix := head, int64(0); i <= end; i++ {
			ops[head].need = max(ops[head].need, prefix+max(ops[i].steps, 1))
			prefix += ops[i].steps
		}
		head = end + 1
	}
}

// fusableLoadOpStore reports whether ld/bin/st form the store-back idiom
// mem[p] = mem[p] <op> x. It returns the non-loaded operand and whether
// the loaded value sits on the right of the binop. Div/rem stay unfused
// so their divide-by-zero check keeps its exact walker position.
func fusableLoadOpStore(ld, bin, st *ir.Instr, uses map[*ir.Instr]int) (other ir.Value, rev, ok bool) {
	if st.Opcode != ir.OpStore || !bin.Opcode.IsBinaryOp() || uses[bin] != 1 {
		return nil, false, false
	}
	if bin.Opcode == ir.OpDiv || bin.Opcode == ir.OpRem {
		return nil, false, false
	}
	if st.Ops[0] != ir.Value(bin) || st.Ops[1] != ld.Ops[0] {
		return nil, false, false
	}
	lhs, rhs := bin.Ops[0] == ir.Value(ld), bin.Ops[1] == ir.Value(ld)
	switch {
	case lhs && !rhs:
		return bin.Ops[1], false, true
	case rhs && !lhs:
		return bin.Ops[0], true, true
	}
	return nil, false, false
}

// compileOne lowers a single non-fused instruction.
func compileOne(img *image, cf *cfunc, in *ir.Instr, b *ir.Block, cost CostModel, slots map[ir.Value]int32,
	resolve func(ir.Value) (int32, error), edgeTo func(from, to *ir.Block) (cedge, error)) (cop, error) {
	op := cop{dst: -1, steps: 1, cost: cost.Cost(in)}
	if in.HasResult() {
		op.dst = slots[in]
	}
	operand := func(i int) (int32, error) { return resolve(in.Ops[i]) }
	var err error
	switch in.Opcode {
	case ir.OpAlloca:
		op.code = cAlloca
		op.k = int64(in.AllocaElem.Size() * in.AllocaCount)
	case ir.OpLoad:
		op.code = cLoad
		op.a, err = operand(0)
	case ir.OpStore:
		op.code = cStore
		if op.a, err = operand(0); err == nil {
			op.b, err = operand(1)
		}
	case ir.OpPtrAdd:
		op.code = cPtrAdd
		op.k = int64(in.Ty.Elem.Size())
		if op.a, err = operand(0); err == nil {
			op.b, err = operand(1)
		}
	case ir.OpSelect:
		op.code = cSelect
		if op.a, err = operand(0); err == nil {
			if op.b, err = operand(1); err == nil {
				op.c, err = operand(2)
			}
		}
	case ir.OpCall:
		if f := in.CalledFunction(); f != nil && f.IsDeclaration() {
			// Bound only in the shape the lowerings emit — the registered
			// arity, a result from pop and from nothing else — so the ops
			// need no cases for the others; those stay generic calls.
			if ext := img.externFor(f); ext != nil && ext.op != cInvalid &&
				len(in.Ops)-1 == ext.arity && in.HasResult() == (ext.op == cQueuePop) {
				op.code = ext.op
				op.cost += cost.externCost(ext.kind)
				if op.a, err = operand(1); err == nil && ext.arity > 1 {
					op.b, err = operand(2)
				}
				if err == nil && ext.arity > 2 {
					op.c, err = operand(3)
				}
				break
			}
		}
		op.code = cCall
		call := &ccall{direct: in.CalledFunction()}
		if call.direct == nil {
			if call.callee, err = operand(0); err != nil {
				return op, err
			}
		}
		for _, a := range in.Ops[1:] {
			ref, rerr := resolve(a)
			if rerr != nil {
				return op, rerr
			}
			call.args = append(call.args, ref)
		}
		op.call = call
	case ir.OpBr:
		op.code = cBr
		e, eerr := edgeTo(b, in.Blocks[0])
		if eerr != nil {
			return op, eerr
		}
		op.edges = []cedge{e}
	case ir.OpCondBr:
		op.code = cCondBr
		if op.a, err = operand(0); err != nil {
			return op, err
		}
		et, eerr := edgeTo(b, in.Blocks[0])
		if eerr != nil {
			return op, eerr
		}
		ef, eerr := edgeTo(b, in.Blocks[1])
		if eerr != nil {
			return op, eerr
		}
		op.edges = []cedge{et, ef}
	case ir.OpRet:
		if len(in.Ops) == 0 {
			op.code = cRetVoid
		} else {
			op.code = cRet
			op.a, err = operand(0)
		}
	default:
		code, ok := simpleCop[in.Opcode]
		if !ok {
			return op, fmt.Errorf("interp: compile @%s: cannot execute %s", cf.fn.Nam, in.Opcode)
		}
		op.code = code
		op.sub = in.Opcode // float groups dispatch on the precise opcode
		if op.a, err = operand(0); err == nil && len(in.Ops) > 1 {
			op.b, err = operand(1)
		}
	}
	return op, err
}

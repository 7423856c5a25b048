// The compiled tier's front half: lower one IR function to pre-bound
// direct-threaded ops. Compilation runs once per function per image
// (cached in image.progs; image.probed for an observing context's
// variant), and every interp.New is a new image, so every run pays it
// for the functions it calls: about 230 ns per instruction, and a
// handful of allocations per function whatever its size
// (BenchmarkCompileWhole, TestCompileAllocsConstant). It takes four dense
// passes over the function — number the results into one pointer-keyed
// map and slot-indexed slices, count uses and fold, plan the fusions and
// size every table, lower — and cuts the body's ops, sub-costs, edges,
// moves and call payloads from one array each. It resolves everything
// that is invariant across calls:
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
//   - the price list's cycles (cost.go) are pre-added per op, and per op
//     *segment*: a run of ops ending at a call, at a probe that reads
//     Cycles (cLoopCall, cLoopReturn), at cCount or at a terminator. The
//     segment's first op carries the budget headroom the run needs, and
//     every op what the ops after it in its segment cost, so the executor
//     checks the budget and charges the counters once per segment, at its
//     first op, and a trap gives back what the ops after it were charged;
//   - a direct call to noelle_queue_push/pop, their bulk forms push_n/
//     pop_n, or noelle_signal_wait/fire
//     becomes a first-class op (cQueuePush, ...) carrying the call's and
//     the extern's cost pre-summed, as long as the image's registration
//     for that name is the runtime's own and the call has its arity and
//     result shape. The op runs the same body as the generic extern
//     without building an argument vector or going through the registry.
//
// Walker-visible runtime errors (fell off block end, missing phi
// incoming, an alloca too large for memory) compile to cErr ops carrying
// the walker's exact message, so the tiers stay byte-identical even on
// those paths. A function the
// compiler cannot lower (malformed operands) is rejected — Call falls
// back to the walker, whose runtime checks are the reference behaviour,
// and Interp.Rejected names it (noelle-bin's footer prints the names) —
// or fails, for a context whose observation request only this tier can
// serve (observe.go, which also describes the probe ops such a context's
// streams carry on top of everything above). The compiler this one
// replaced is kept as the oracle it is held to, op for op
// (compile_reference_test.go).

package interp

import (
	"fmt"
	"slices"

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
	// commGen is the extern-registry generation the communication ops
	// were bound under; a replaced communication extern recompiles (see
	// image.compiled).
	commGen int64
	// probes is the observation bound into the stream (zero: the plain
	// stream); like commGen it keys the cached body.
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
// dispatch codes (cInvalid: none). Opcodes with operand layouts of their
// own (memory, calls, terminators, select, phi) are handled explicitly.
var simpleCop = [...]copcode{
	ir.OpAdd: cAdd, ir.OpSub: cSub, ir.OpMul: cMul, ir.OpDiv: cDiv, ir.OpRem: cRem,
	ir.OpAnd: cAnd, ir.OpOr: cOr, ir.OpXor: cXor, ir.OpShl: cShl, ir.OpShr: cShr,
	ir.OpFAdd: cFAdd, ir.OpFSub: cFSub, ir.OpFMul: cFMul, ir.OpFDiv: cFDiv,
	ir.OpEq: cEq, ir.OpNe: cNe, ir.OpLt: cLt, ir.OpLe: cLe, ir.OpGt: cGt, ir.OpGe: cGe,
	ir.OpFEq: cFEq, ir.OpFNe: cFNe, ir.OpFLt: cFLt, ir.OpFLe: cFLe, ir.OpFGt: cFGt, ir.OpFGe: cFGe,
	ir.OpSIToFP: cSIToFP, ir.OpFPToSI: cFPToSI,
	ir.OpZExt: cBit1, ir.OpTrunc: cBit1,
	ir.OpFBits: cMove, ir.OpBitsF: cMove, ir.OpP2I: cMove, ir.OpI2P: cMove,
}

// compiler is one compile's working state. Its tables are dense and
// presized: results are numbered once into slot, every other per-value
// fact sits in a slice indexed by slot or by instruction ordinal, and the
// body's ops, sub-costs, edges, moves and call payloads are each cut from
// one backing array, sized by the passes before lowering. The scratch
// half is reused by the image's next compile (image.scratch); the output
// half belongs to the cfunc it built.
type compiler struct {
	img   *image
	f     *ir.Function
	cf    *cfunc
	pr    probes
	first int32 // index of f's entry block: 1 behind a function-entry counter

	// Scratch. slot numbers the results (parameters take slots 0..n-1, by
	// index) and block the blocks; phis holds each block's count of
	// leading phis. Per instruction ordinal (function order)
	// ordSlot is the slot, -1 for none, and span the length of the
	// superinstruction it starts, 0 for none. Per slot, uses counts the
	// operand references in f, and fold is a folded result's pool slot
	// (0: not folded; a pool slot is never 0). pooled indexes the constant
	// pool being built in consts.
	slot    map[*ir.Instr]int32
	block   map[*ir.Block]int32
	phis    []int32
	ordSlot []int32
	span    []uint8
	uses    []int32
	fold    []int32
	pooled  map[uint64]int32
	consts  []uint64
	starts  []int // where each block's ops begin in ops
	counted []cop // the counting stream's edge blocks, placed after f's own

	// Output backing arrays.
	ops   []cop
	subs  []int64
	edges []cedge
	moves []cmove
	calls []ccall
	args  []int32

	// Folded instructions waiting for the op they ride on: how many, where
	// their sub-costs start in subs, and what they cost.
	pend, pendAt int
	pendCost     int64
	scratchLen   int32
}

// maxScratchMap bounds the scratch maps a compiler keeps: clearing a map
// costs its capacity, so one huge function must not tax every later one.
const maxScratchMap = 1 << 12

// release hands c back to its image for the next compile, keeping none
// of this compile's outputs.
func (c *compiler) release() {
	img := c.img
	if max(len(c.slot), len(c.block), len(c.pooled)) > maxScratchMap {
		return
	}
	clear(c.slot)
	clear(c.block)
	clear(c.pooled)
	c.img, c.f, c.cf, c.pr = nil, nil, nil, probes{}
	c.consts, c.starts, c.counted = c.consts[:0], c.starts[:0], c.counted[:0]
	c.ops, c.subs, c.edges, c.moves, c.calls, c.args = nil, nil, nil, nil, nil, nil
	img.scratch.Store(c)
}

// resize returns s with length n, zeroed, reusing its array when it can.
func resize[T int32 | uint8](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// compileFunc lowers f against img's layout, with the probes of pr
// (already narrowed to f, see probes.in) bound in.
//
// A counting stream differs from the plain one in its blocks only: block
// 0 is the function-entry counter, f's blocks follow from index 1, and
// every edge lands on a one-op block of its own that counts it and jumps
// on (the phi moves stay with the branch that takes the edge). A stream
// with observed loops opens their blocks, and the blocks they exit to,
// with a probe per loop, and brackets their in-loop calls.
//
// Four passes over f: number, fold, plan, lower.
func compileFunc(img *image, f *ir.Function, pr probes) (*cfunc, error) {
	c := img.scratch.Swap(nil) // nil while another compile holds it
	if c == nil {
		c = new(compiler) // sizes its maps for the first function it numbers
	}
	defer c.release()
	c.img, c.f, c.pr = img, f, pr
	c.first = 0
	if pr.counts != nil {
		c.first = 1
	}
	nEdges, nMoves, nCalls, nArgs := c.number()
	c.cf = &cfunc{fn: f, probes: pr, pool: int32(len(c.uses))}
	c.foldConstants()
	nOps, nSubs := c.plan()
	if pr.counts != nil {
		nOps += 1 + nEdges
		nEdges = 2*nEdges + 1
	}
	c.ops = make([]cop, 0, nOps)
	c.subs = make([]int64, 0, nSubs)
	c.edges = make([]cedge, 0, nEdges)
	c.moves = make([]cmove, 0, nMoves)
	c.calls = make([]ccall, 0, nCalls)
	c.args = make([]int32, 0, nArgs)
	c.scratchLen, c.pend, c.pendCost = 0, 0, 0
	if err := c.lower(); err != nil {
		return nil, err
	}
	return c.finish(), nil
}

// number is the first pass: block indices, result slots in block order
// after the parameters (so copy(frame, args) places those), leading phis,
// and the sizes of the edge, phi-move, call and argument tables.
func (c *compiler) number() (nEdges, nMoves, nCalls, nArgs int) {
	f := c.f
	nInstrs := 0
	for _, b := range f.Blocks {
		nInstrs += len(b.Instrs)
	}
	if c.slot == nil {
		c.slot = make(map[*ir.Instr]int32, nInstrs)
		c.block = make(map[*ir.Block]int32, len(f.Blocks))
		c.pooled = make(map[uint64]int32)
	}
	for bi, b := range f.Blocks {
		c.block[b] = c.first + int32(bi)
	}
	c.ordSlot = resize(c.ordSlot, nInstrs)
	c.span = resize(c.span, nInstrs)
	c.phis = resize(c.phis, len(f.Blocks))
	next, ord := int32(len(f.Params)), 0
	for bi, b := range f.Blocks {
		for j, in := range b.Instrs {
			s := int32(-1)
			if in.HasResult() {
				s = next
				c.slot[in] = s
				next++
			}
			c.ordSlot[ord] = s
			ord++
			switch in.Opcode {
			case ir.OpPhi:
				if int(c.phis[bi]) == j {
					c.phis[bi]++
				}
				// One move per incoming edge: exact unless two edges
				// from one block reach it, and then moves just grows.
				nMoves += len(in.Ops)
			case ir.OpBr, ir.OpCondBr:
				nEdges += len(in.Blocks)
			case ir.OpCall:
				nCalls++
				nArgs += max(len(in.Ops)-1, 0)
			}
		}
	}
	c.uses = resize(c.uses, int(next))
	c.fold = resize(c.fold, int(next))
	return
}

// foldConstants is the second pass: it counts every result's uses and
// folds before lowering, so a use in a block listed ahead of its
// definition's reads the pool too. An instruction folds when its operands
// are known — constants, global addresses, function ids, or results
// folded before it — and it computes a value from them alone that cannot
// trap: a ptradd, or what ir.Eval defines and accepts.
func (c *compiler) foldConstants() {
	ord := 0
	for _, b := range c.f.Blocks {
		for _, in := range b.Instrs {
			s := c.ordSlot[ord]
			ord++
			var v [2]uint64
			known := len(in.Ops) <= len(v)
			for i, op := range in.Ops {
				switch x := op.(type) {
				case *ir.Instr:
					u, ok := c.slot[x]
					if ok {
						c.uses[u]++
					}
					if known = known && ok && c.fold[u] != 0; known {
						v[i] = c.consts[c.fold[u]-c.cf.pool]
					}
				case *ir.Const:
					if known {
						v[i] = x.Bits()
					}
				case *ir.Global:
					if known {
						v[i] = uint64(c.img.globalAddr[x])
					}
				case *ir.Function:
					if known {
						v[i] = uint64(c.img.fnIndex[x])
					}
				default:
					known = false
				}
			}
			if !known || s < 0 {
				continue
			}
			if in.Opcode == ir.OpPtrAdd {
				c.fold[s] = c.constant(uint64(int64(v[0]) + int64(v[1])*int64(in.Ty.Elem.Size())))
			} else if bits, ok := ir.Eval(in.Opcode, v[0], v[1]); ok {
				c.fold[s] = c.constant(bits)
			}
		}
	}
}

// folded reports whether the result in slot s was folded into the pool.
func (c *compiler) folded(s int32) bool { return s >= 0 && c.fold[s] != 0 }

// usedOnce reports whether slot s has exactly one use in f: an
// intermediate may only fuse away when the fused op is its sole consumer.
func (c *compiler) usedOnce(s int32) bool { return s >= 0 && c.uses[s] == 1 }

// plan is the third pass: it marks where the idioms fuse into
// superinstructions and returns how many ops and sub-costs the plain
// stream has. A probed stream has more ops, and lower grows the array for
// them; its sub-costs stay within the count (a probe the folded
// instructions ride on instead of its call brings none of its own).
func (c *compiler) plan() (nOps, nSubs int) {
	base := 0
	for bi, b := range c.f.Blocks {
		nPhi := int(c.phis[bi])
		ins, sl, span := b.Instrs[nPhi:], c.ordSlot[base+nPhi:base+len(b.Instrs)], c.span[base+nPhi:]
		base += len(b.Instrs)
		carried := false
		for i := 0; i < len(ins); {
			if c.folded(sl[i]) {
				nSubs++
				carried = true
				i++
				continue
			}
			nOps++
			if n := c.idiom(ins[i:], sl[i:]); n > 0 {
				span[i] = uint8(n)
				nSubs += n
				i += n
			} else {
				if carried {
					nSubs++ // its own cost, behind the carried ones
				}
				i++
			}
			carried = false
		}
		if len(ins) == 0 || !ins[len(ins)-1].IsTerminator() {
			nOps++ // cErr
		}
	}
	return nOps, nSubs
}

// idiom returns how many instructions the superinstruction starting at
// ins[0] fuses, or 0. sl holds ins' slots.
func (c *compiler) idiom(ins []*ir.Instr, sl []int32) int {
	in := ins[0]
	if len(ins) < 2 || !c.usedOnce(sl[0]) {
		return 0
	}
	switch next := ins[1]; {
	case in.Opcode.IsCompare():
		// Compare feeding only the adjacent condbr.
		if next.Opcode == ir.OpCondBr && next.Ops[0] == ir.Value(in) {
			return 2
		}
	case in.Opcode == ir.OpLoad:
		// Load; binop; store back to the same address, intermediates
		// consumed only inside the idiom.
		if len(ins) > 2 && fusableLoadOpStore(in, next, ins[2], c.usedOnce(sl[1])) {
			return 3
		}
	case in.Opcode == ir.OpPtrAdd:
		// Ptradd whose only use is the address of the adjacent load or
		// store.
		if next.Opcode == ir.OpLoad && next.Ops[0] == ir.Value(in) ||
			next.Opcode == ir.OpStore && next.Ops[1] == ir.Value(in) {
			return 2
		}
	}
	return 0
}

// fusableLoadOpStore reports whether ld/bin/st form the store-back idiom
// mem[p] = mem[p] <op> x, binOnce saying whether bin has no other use.
// Div/rem stay unfused so their divide-by-zero check keeps its exact
// walker position.
func fusableLoadOpStore(ld, bin, st *ir.Instr, binOnce bool) bool {
	if st.Opcode != ir.OpStore || !bin.Opcode.IsBinaryOp() || !binOnce {
		return false
	}
	if bin.Opcode == ir.OpDiv || bin.Opcode == ir.OpRem {
		return false
	}
	if st.Ops[0] != ir.Value(bin) || st.Ops[1] != ld.Ops[0] {
		return false
	}
	return (bin.Ops[0] == ir.Value(ld)) != (bin.Ops[1] == ir.Value(ld))
}

// lower is the fourth pass: every block's ops, in order, with the folded
// instructions' charges carried onto the op after them.
func (c *compiler) lower() error {
	f, pr := c.f, c.pr
	c.starts, c.counted = c.starts[:0], c.counted[:0]
	if pr.counts != nil {
		c.starts = append(c.starts, len(c.ops))
		c.push(cop{code: cCount, dst: -1, k: pr.counts.counter(nil, f.Entry()),
			edges: c.edgesOf(cedge{target: c.first})})
	}
	base := 0
	for bi, b := range f.Blocks {
		c.starts = append(c.starts, len(c.ops))
		nPhi := int(c.phis[bi])
		ins, sl, span := b.Instrs[nPhi:], c.ordSlot[base+nPhi:base+len(b.Instrs)], c.span[base+nPhi:]
		base += len(b.Instrs)
		if pr.loops != nil {
			for _, op := range pr.loops.blockProbes(b) {
				c.push(op)
			}
		}
		for i := 0; i < len(ins); i++ {
			in := ins[i]
			switch {
			case c.folded(sl[i]):
				c.carry(in)
			case span[i] > 0:
				if err := c.lowerIdiom(b, ins[i:i+int(span[i])]); err != nil {
					return err
				}
				i += int(span[i]) - 1
			case pr.loops != nil && in.Opcode == ir.OpCall:
				var op cop
				if err := c.compileOne(&op, in, b, sl[i]); err != nil {
					return err
				}
				before, after := pr.loops.callProbes(in, b)
				for _, p := range before {
					c.push(p)
				}
				c.push(op)
				for _, p := range after {
					c.push(p)
				}
			default:
				op := c.next()
				if err := c.compileOne(op, in, b, sl[i]); err != nil {
					return err
				}
				c.settle(op)
			}
		}
		if len(ins) == 0 || !ins[len(ins)-1].IsTerminator() {
			// The walker executes the whole block, then errors; the cErr
			// op retires nothing, matching its counters exactly.
			c.push(cop{code: cErr, dst: -1,
				errMsg: fmt.Sprintf("interp: @%s/%s: fell off block end", f.Nam, b.Nam)})
		}
	}
	return nil
}

// lowerIdiom lowers the superinstruction plan marked at ins[0], ins being
// the instructions it fuses.
func (c *compiler) lowerIdiom(b *ir.Block, ins []*ir.Instr) error {
	in, next := ins[0], ins[1]
	op := c.next()
	op.dst = -1
	var err error
	switch in.Opcode {
	case ir.OpLoad:
		other := next.Ops[0]
		if op.rev = next.Ops[1] == ir.Value(in); !op.rev {
			other = next.Ops[1]
		}
		op.code, op.sub = cLoadOpStore, next.Opcode
		op.a, op.b, err = c.operands2(in.Ops[0], other)
	case ir.OpPtrAdd:
		op.k = int64(in.Ty.Elem.Size())
		if next.Opcode == ir.OpLoad {
			op.code, op.dst = cPtrLoad, c.slot[next]
			op.a, op.b, err = c.operands2(in.Ops[0], in.Ops[1])
			break
		}
		op.code = cPtrStore
		if op.a, err = c.resolve(next.Ops[0]); err == nil {
			op.b, op.c, err = c.operands2(in.Ops[0], in.Ops[1])
		}
	default:
		op.code, op.sub = cCmpBr, in.Opcode
		if op.a, op.b, err = c.operands2(in.Ops[0], in.Ops[1]); err != nil {
			return err
		}
		var et, ef cedge
		if et, err = c.edgeTo(b, next.Blocks[0]); err == nil {
			if ef, err = c.edgeTo(b, next.Blocks[1]); err == nil {
				op.edges = c.edgesOf(et, ef)
			}
		}
	}
	if err != nil {
		return err
	}
	// Every fused instruction's step and cycles, with the per-instruction
	// breakdown for a budget boundary inside the op.
	at := len(c.subs)
	for _, in := range ins {
		k := Cost(in)
		c.subs = append(c.subs, k)
		op.cost += k
	}
	op.steps = int64(len(ins))
	op.subCost = c.subs[at:len(c.subs):len(c.subs)]
	c.settle(op)
	return nil
}

// finish cuts the blocks out of the ops array, the counting stream's edge
// blocks last, and accounts their segments.
func (c *compiler) finish() *cfunc {
	cf := c.cf
	end := len(c.ops)
	c.ops = append(c.ops, c.counted...)
	cf.blocks = make([][]cop, len(c.starts)+len(c.counted))
	for i, lo := range c.starts {
		hi := end
		if i+1 < len(c.starts) {
			hi = c.starts[i+1]
		}
		cf.blocks[i] = c.ops[lo:hi:hi]
	}
	for i := range c.counted {
		lo := end + i
		cf.blocks[len(c.starts)+i] = c.ops[lo : lo+1 : lo+1]
	}
	for _, ops := range cf.blocks {
		segment(ops)
	}
	if len(c.consts) > 0 {
		cf.consts = append([]uint64(nil), c.consts...)
	}
	cf.scratch = cf.pool + int32(len(cf.consts))
	cf.frameLen = cf.scratch + c.scratchLen
	return cf
}

// constant returns the pool slot holding bits, adding it on first use.
func (c *compiler) constant(bits uint64) int32 {
	s, ok := c.pooled[bits]
	if !ok {
		s = c.cf.pool + int32(len(c.consts))
		c.pooled[bits] = s
		c.consts = append(c.consts, bits)
	}
	return s
}

// resolve returns the frame slot v is read from.
func (c *compiler) resolve(v ir.Value) (int32, error) {
	switch x := v.(type) {
	case *ir.Const:
		return c.constant(x.Bits()), nil
	case *ir.Global:
		return c.constant(uint64(c.img.globalAddr[x])), nil
	case *ir.Function:
		return c.constant(uint64(c.img.fnIndex[x])), nil
	case *ir.Instr:
		if s, ok := c.slot[x]; ok {
			if p := c.fold[s]; p != 0 {
				return p, nil
			}
			return s, nil
		}
	case *ir.Param:
		if i := x.Index; i >= 0 && i < len(c.f.Params) && c.f.Params[i] == x {
			return int32(i), nil
		}
		if i := slices.Index(c.f.Params, x); i >= 0 {
			return int32(i), nil
		}
	}
	// An operand defined outside this function: the walker's runtime
	// undefined-value check is the reference here.
	return 0, fmt.Errorf("interp: compile @%s: unresolvable operand %s", c.f.Nam, v.Ident())
}

// operands2 resolves two operands, in order.
func (c *compiler) operands2(x, y ir.Value) (int32, int32, error) {
	a, err := c.resolve(x)
	if err != nil {
		return 0, 0, err
	}
	b, err := c.resolve(y)
	return a, b, err
}

// next appends a zero op to the block being lowered, to be built in place
// and then settled.
func (c *compiler) next() *cop {
	c.ops = append(c.ops, cop{})
	return &c.ops[len(c.ops)-1]
}

// push appends a built op and settles it.
func (c *compiler) push(op cop) {
	c.ops = append(c.ops, op)
	c.settle(&c.ops[len(c.ops)-1])
}

// settle gives op the charge of the folded instructions before it: they
// ride on it as leading fused instructions, their sub-costs in subs right
// ahead of its own, so its breakdown is one window of subs.
func (c *compiler) settle(op *cop) {
	if c.pend == 0 {
		return
	}
	if op.subCost == nil && op.steps == 1 {
		c.subs = append(c.subs, op.cost)
	}
	op.subCost = c.subs[c.pendAt:len(c.subs):len(c.subs)]
	op.cost += c.pendCost
	op.steps += int64(c.pend)
	c.pend, c.pendCost = 0, 0
}

// carry drops a folded instruction from the stream, its charge waiting for
// the next op (every block ends in a terminator or cErr, so there always
// is one).
func (c *compiler) carry(in *ir.Instr) {
	if c.pend == 0 {
		c.pendAt = len(c.subs)
	}
	k := Cost(in)
	c.subs = append(c.subs, k)
	c.pend++
	c.pendCost += k
}

// edgesOf cuts es out of the edges array.
func (c *compiler) edgesOf(es ...cedge) []cedge {
	at := len(c.edges)
	c.edges = append(c.edges, es...)
	return c.edges[at:len(c.edges):len(c.edges)]
}

// edgeTo compiles the CFG edge from -> to; on a counting stream it lands
// on the edge's own counter block.
func (c *compiler) edgeTo(from, to *ir.Block) (cedge, error) {
	e, err := c.plainEdge(from, to)
	if c.pr.counts != nil {
		c.counted = append(c.counted, cop{code: cCount, dst: -1,
			k: c.pr.counts.counter(from, to), edges: c.edgesOf(cedge{target: e.target})})
		e.target = c.first + int32(len(c.f.Blocks)+len(c.counted)-1)
	}
	return e, err
}

// plainEdge compiles the edge from -> to: its target, and to's phis as
// slot moves cut from the moves array.
func (c *compiler) plainEdge(from, to *ir.Block) (cedge, error) {
	e := cedge{target: c.block[to]}
	at := len(c.moves)
	for _, phi := range to.Instrs {
		if phi.Opcode != ir.OpPhi {
			break
		}
		inc := phi.PhiIncoming(from)
		if inc == nil {
			c.moves = c.moves[:at]
			return cedge{target: e.target, badPhiMsg: fmt.Sprintf("interp: @%s/%s: phi %s has no incoming for %s",
				c.f.Nam, to.Nam, phi.Ident(), from.Nam)}, nil
		}
		src, err := c.resolve(inc)
		if err != nil {
			return e, err
		}
		c.moves = append(c.moves, cmove{dst: c.slot[phi], src: src})
		e.steps++
		e.cycles += Cost(phi)
	}
	if len(c.moves) == at {
		return e, nil
	}
	e.moves = c.moves[at:len(c.moves):len(c.moves)]
	// The walker reads every incoming value before assigning any
	// (parallel assignment); direct moves are only safe when no
	// destination slot feeds a later read.
	for _, mv := range e.moves {
		if slices.ContainsFunc(e.moves, func(d cmove) bool { return d.dst == mv.src }) {
			e.scratch = true
			c.scratchLen = max(c.scratchLen, int32(len(e.moves)))
			break
		}
	}
	return e, nil
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

// compileOne builds, in op, a single non-fused instruction whose result,
// if any, has slot s.
func (c *compiler) compileOne(op *cop, in *ir.Instr, b *ir.Block, s int32) error {
	op.dst, op.steps, op.cost = -1, 1, Cost(in)
	if in.HasResult() {
		op.dst = s
	}
	operand := func(i int) (int32, error) { return c.resolve(in.Ops[i]) }
	var err error
	switch in.Opcode {
	case ir.OpAlloca:
		op.code = cAlloca
		if op.k, err = allocaSize(in); err != nil {
			// Charged as the alloca, as the walker charges it before it
			// traps.
			op.code, op.errMsg, err = cErr, err.Error(), nil
		}
	case ir.OpLoad:
		op.code = cLoad
		op.a, err = operand(0)
	case ir.OpStore:
		op.code = cStore
		op.a, op.b, err = c.operands2(in.Ops[0], in.Ops[1])
	case ir.OpPtrAdd:
		op.code = cPtrAdd
		op.k = int64(in.Ty.Elem.Size())
		op.a, op.b, err = c.operands2(in.Ops[0], in.Ops[1])
	case ir.OpSelect:
		op.code = cSelect
		if op.a, op.b, err = c.operands2(in.Ops[0], in.Ops[1]); err == nil {
			op.c, err = operand(2)
		}
	case ir.OpCall:
		if f := in.CalledFunction(); f != nil && f.IsDeclaration() {
			// Bound only in the shape the lowerings emit — the registered
			// arity, a result from pop and from nothing else — so the ops
			// need no cases for the others; those stay generic calls.
			if ext := c.img.externFor(f); ext != nil && ext.op != cInvalid &&
				len(in.Ops)-1 == ext.arity && in.HasResult() == (ext.op == cQueuePop) {
				op.code = ext.op
				op.cost += externCost[ext.kind]
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
		call := ccall{direct: in.CalledFunction()}
		if call.direct == nil {
			if call.callee, err = operand(0); err != nil {
				return err
			}
		}
		at := len(c.args)
		for _, a := range in.Ops[1:] {
			ref, rerr := c.resolve(a)
			if rerr != nil {
				return rerr
			}
			c.args = append(c.args, ref)
		}
		if len(c.args) > at {
			call.args = c.args[at:len(c.args):len(c.args)]
		}
		c.calls = append(c.calls, call)
		op.call = &c.calls[len(c.calls)-1]
	case ir.OpBr:
		op.code = cBr
		e, eerr := c.edgeTo(b, in.Blocks[0])
		if eerr != nil {
			return eerr
		}
		op.edges = c.edgesOf(e)
	case ir.OpCondBr:
		op.code = cCondBr
		if op.a, err = operand(0); err != nil {
			return err
		}
		et, eerr := c.edgeTo(b, in.Blocks[0])
		if eerr != nil {
			return eerr
		}
		ef, eerr := c.edgeTo(b, in.Blocks[1])
		if eerr != nil {
			return eerr
		}
		op.edges = c.edgesOf(et, ef)
	case ir.OpRet:
		if len(in.Ops) == 0 {
			op.code = cRetVoid
		} else {
			op.code = cRet
			op.a, err = operand(0)
		}
	default:
		if uint(in.Opcode) < uint(len(simpleCop)) {
			op.code = simpleCop[in.Opcode]
		}
		if op.code == cInvalid {
			return fmt.Errorf("interp: compile @%s: cannot execute %s", c.f.Nam, in.Opcode)
		}
		op.sub = in.Opcode // float groups dispatch on the precise opcode
		if op.a, err = operand(0); err == nil && len(in.Ops) > 1 {
			op.b, err = operand(1)
		}
	}
	return err
}

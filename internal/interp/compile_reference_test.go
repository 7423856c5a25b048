// The compiled tier's compiler as it stood before it became dense passes
// over presized tables (compile.go): slots and use counts in maps keyed
// by value, a map per CFG edge, and a slice allocated per
// superinstruction, branch and call. It is kept verbatim as the oracle
// TestCompileMatchesReference holds compileFunc to, op for op: both share
// the op layout, segment and the probe builders of observe.go.

package interp

import (
	"fmt"
	"reflect"

	"noelle/internal/ir"
)

// CompileMatchesReference compiles every defined function of m with
// compileFunc and with refCompileFunc, on one image, in three variants:
// the plain stream, the edge-counting stream, and the stream observing
// every loop of reqs. It returns the first variant of the first function
// whose bodies, or rejections, differ.
func CompileMatchesReference(m *ir.Module, reqs []LoopRequest) error {
	img := New(m).img
	cost := refPrices()
	var counts [2]EdgeCounts
	var loops [2]*loopSet
	for i := range loops {
		it := New(m)
		if _, err := it.ObserveLoops(reqs); err != nil {
			return err
		}
		loops[i] = it.probes.loops
	}
	type variant struct {
		name string
		pr   [2]probes // compileFunc's, refCompileFunc's
	}
	for _, f := range m.Functions {
		if f.IsDeclaration() {
			continue
		}
		variants := []variant{
			{"plain", [2]probes{}},
			{"counting", [2]probes{{counts: &counts[0]}, {counts: &counts[1]}}},
		}
		if loops[0].fns[f] {
			variants = append(variants, variant{"observing", [2]probes{{loops: loops[0]}, {loops: loops[1]}}})
		}
		for _, v := range variants {
			got, gerr := compileFunc(img, f, v.pr[0])
			want, werr := refCompileFunc(img, f, cost, v.pr[1])
			if fmt.Sprint(gerr) != fmt.Sprint(werr) {
				return fmt.Errorf("@%s %s: compile error %v, reference %v", f.Nam, v.name, gerr, werr)
			}
			if !reflect.DeepEqual(got, want) {
				return fmt.Errorf("@%s %s: %s", f.Nam, v.name, cfuncDiff(got, want))
			}
		}
	}
	return nil
}

// cfuncDiff names the first place two compiled bodies differ.
func cfuncDiff(got, want *cfunc) string {
	if got == nil || want == nil {
		return fmt.Sprintf("body %v, reference %v", got, want)
	}
	if len(got.blocks) != len(want.blocks) {
		return fmt.Sprintf("%d blocks, reference %d", len(got.blocks), len(want.blocks))
	}
	for bi := range got.blocks {
		g, w := got.blocks[bi], want.blocks[bi]
		for i := range max(len(g), len(w)) {
			if i >= len(g) || i >= len(w) || !reflect.DeepEqual(g[i], w[i]) {
				var gop, wop any
				if i < len(g) {
					gop = g[i]
				}
				if i < len(w) {
					wop = w[i]
				}
				return fmt.Sprintf("block %d op %d: %+v, reference %+v", bi, i, gop, wop)
			}
		}
	}
	if !reflect.DeepEqual(got.probes, want.probes) {
		return "the probe tables differ"
	}
	g, w := *got, *want
	g.blocks, w.blocks = nil, nil
	return fmt.Sprintf("%+v, reference %+v", g, w)
}

// refSimpleCop maps the plain value-producing opcodes to their compiled
// dispatch codes. Opcodes with operand layouts of their own (memory,
// calls, terminators, select, phi) are handled explicitly.
var refSimpleCop = map[ir.Op]copcode{
	ir.OpAdd: cAdd, ir.OpSub: cSub, ir.OpMul: cMul, ir.OpDiv: cDiv, ir.OpRem: cRem,
	ir.OpAnd: cAnd, ir.OpOr: cOr, ir.OpXor: cXor, ir.OpShl: cShl, ir.OpShr: cShr,
	ir.OpFAdd: cFAdd, ir.OpFSub: cFSub, ir.OpFMul: cFMul, ir.OpFDiv: cFDiv,
	ir.OpEq: cEq, ir.OpNe: cNe, ir.OpLt: cLt, ir.OpLe: cLe, ir.OpGt: cGt, ir.OpGe: cGe,
	ir.OpFEq: cFEq, ir.OpFNe: cFNe, ir.OpFLt: cFLt, ir.OpFLe: cFLe, ir.OpFGt: cFGt, ir.OpFGe: cFGe,
	ir.OpSIToFP: cSIToFP, ir.OpFPToSI: cFPToSI,
	ir.OpZExt: cBit1, ir.OpTrunc: cBit1,
	ir.OpFBits: cMove, ir.OpBitsF: cMove, ir.OpP2I: cMove, ir.OpI2P: cMove,
}

// refCompileFunc lowers f against img's layout under the given cost model,
// with the probes of pr (already narrowed to f, see probes.in) bound in.
//
// A counting stream differs from the plain one in its blocks only: block
// 0 is the function-entry counter, f's blocks follow from index 1, and
// every edge lands on a one-op block of its own that counts it and jumps
// on (the phi moves stay with the branch that takes the edge). A stream
// with observed loops opens their blocks, and the blocks they exit to,
// with a probe per loop, and brackets their in-loop calls.
func refCompileFunc(img *image, f *ir.Function, cost refModel, pr probes) (*cfunc, error) {
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

	cf := &cfunc{fn: f, probes: pr, pool: next}
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
			ops = append(ops, pr.loops.blockProbes(b)...)
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
					ops = append(ops, refFused(cop{code: cCmpBr, sub: in.Opcode, dst: -1, a: refs[0], b: refs[1],
						edges: []cedge{et, ef}}, cost, in, br))
					i++
					continue
				}
			}

			// Superinstruction: load; binop; store back to the same
			// address, intermediates consumed only inside the idiom.
			if in.Opcode == ir.OpLoad && i+2 < len(ins) && uses[in] == 1 {
				bin, st := ins[i+1], ins[i+2]
				if other, rev, ok := refFusableLoadOpStore(in, bin, st, uses); ok {
					refs, err := operands(in.Ops[0], other)
					if err != nil {
						return nil, err
					}
					ops = append(ops, refFused(cop{code: cLoadOpStore, sub: bin.Opcode, rev: rev, dst: -1,
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
					ops = append(ops, refFused(cop{code: cPtrLoad, dst: slots[mem], a: refs[0], b: refs[1], k: k},
						cost, in, mem))
					i++
					continue
				}
				if mem.Opcode == ir.OpStore && mem.Ops[1] == ir.Value(in) {
					refs, err := operands(mem.Ops[0], in.Ops[0], in.Ops[1])
					if err != nil {
						return nil, err
					}
					ops = append(ops, refFused(cop{code: cPtrStore, dst: -1, a: refs[0], b: refs[1], c: refs[2], k: k},
						cost, in, mem))
					i++
					continue
				}
			}

			op, err := refCompileOne(img, cf, in, b, cost, slots, resolve, edgeTo)
			if err != nil {
				return nil, err
			}
			if pr.loops != nil && in.Opcode == ir.OpCall {
				before, after := pr.loops.callProbes(in, b)
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
		cf.blocks = append(cf.blocks, refCarry(ops))
	}
	cf.blocks = append(cf.blocks, counted...)
	for _, ops := range cf.blocks {
		segment(ops)
	}
	cf.scratch = cf.pool + int32(len(cf.consts))
	cf.frameLen = cf.scratch + scratchLen
	return cf, nil
}

// refFused completes a superinstruction: it retires every fused instruction's
// step and cycles, and keeps the per-instruction breakdown for a budget
// boundary inside it.
func refFused(op cop, cost refModel, ins ...*ir.Instr) cop {
	op.steps = int64(len(ins))
	op.subCost = make([]int64, len(ins))
	for i, in := range ins {
		op.subCost[i] = cost.Cost(in)
		op.cost += op.subCost[i]
	}
	return op
}

// refCarry drops the cFolded ops from a block, each one's charge riding on
// the op after it as a leading fused instruction (every block ends in a
// terminator or cErr, so there always is one).
func refCarry(ops []cop) []cop {
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

// refFusableLoadOpStore reports whether ld/bin/st form the store-back idiom
// mem[p] = mem[p] <op> x. It returns the non-loaded operand and whether
// the loaded value sits on the right of the binop. Div/rem stay unfused
// so their divide-by-zero check keeps its exact walker position.
func refFusableLoadOpStore(ld, bin, st *ir.Instr, uses map[*ir.Instr]int) (other ir.Value, rev, ok bool) {
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

// refCompileOne lowers a single non-fused instruction.
func refCompileOne(img *image, cf *cfunc, in *ir.Instr, b *ir.Block, cost refModel, slots map[ir.Value]int32,
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
		code, ok := refSimpleCop[in.Opcode]
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

package ir

import (
	"fmt"
	"strings"
)

// Op is an instruction opcode.
type Op int

// Instruction opcodes.
const (
	OpInvalid Op = iota

	// Memory.
	OpAlloca // %p = alloca <elem>, <count>      (count is a constant)
	OpLoad   // %v = load <ty>, ptr %p
	OpStore  // store <ty> %v, ptr %p
	OpPtrAdd // %q = ptradd ptr %p, %idx         (scaled by pointee size)

	// Integer arithmetic (i64).
	OpAdd
	OpSub
	OpMul
	OpDiv
	OpRem
	OpAnd
	OpOr
	OpXor
	OpShl
	OpShr

	// Float arithmetic (f64).
	OpFAdd
	OpFSub
	OpFMul
	OpFDiv

	// Comparisons: integers produce i1.
	OpEq
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
	// Float comparisons.
	OpFEq
	OpFNe
	OpFLt
	OpFLe
	OpFGt
	OpFGe

	// Conversions.
	OpSIToFP // i64 -> f64
	OpFPToSI // f64 -> i64
	OpZExt   // i1 -> i64
	OpTrunc  // i64 -> i1 (non-zero test is NOT implied; low bit kept)
	OpFBits  // f64 -> i64 raw bit reinterpretation
	OpBitsF  // i64 -> f64 raw bit reinterpretation
	OpP2I    // ptr -> i64 address
	OpI2P    // i64 -> ptr (result type carried by the instruction)

	// Other.
	OpSelect // %v = select i1 %c, %a, %b
	OpPhi    // %v = phi ty [ %a, bb1 ], [ %b, bb2 ]
	OpCall   // %v = call fn(...) callee, args...

	// Terminators.
	OpBr     // br bb
	OpCondBr // condbr %c, bbTrue, bbFalse
	OpRet    // ret %v | ret void
)

var opNames = map[Op]string{
	OpAlloca: "alloca", OpLoad: "load", OpStore: "store", OpPtrAdd: "ptradd",
	OpAdd: "add", OpSub: "sub", OpMul: "mul", OpDiv: "div", OpRem: "rem",
	OpAnd: "and", OpOr: "or", OpXor: "xor", OpShl: "shl", OpShr: "shr",
	OpFAdd: "fadd", OpFSub: "fsub", OpFMul: "fmul", OpFDiv: "fdiv",
	OpEq: "eq", OpNe: "ne", OpLt: "lt", OpLe: "le", OpGt: "gt", OpGe: "ge",
	OpFEq: "feq", OpFNe: "fne", OpFLt: "flt", OpFLe: "fle", OpFGt: "fgt", OpFGe: "fge",
	OpSIToFP: "sitofp", OpFPToSI: "fptosi", OpZExt: "zext", OpTrunc: "trunc",
	OpFBits: "fbits", OpBitsF: "bitsf", OpP2I: "p2i", OpI2P: "i2p",
	OpSelect: "select", OpPhi: "phi", OpCall: "call",
	OpBr: "br", OpCondBr: "condbr", OpRet: "ret",
}

// String returns the mnemonic of the opcode.
func (o Op) String() string {
	if s, ok := opNames[o]; ok {
		return s
	}
	return fmt.Sprintf("op(%d)", int(o))
}

// opByName inverts opNames for the parser.
var opByName = func() map[string]Op {
	m := make(map[string]Op, len(opNames))
	for op, s := range opNames {
		m[s] = op
	}
	return m
}()

// OpFromName returns the opcode for a mnemonic, or OpInvalid.
func OpFromName(name string) Op {
	if op, ok := opByName[name]; ok {
		return op
	}
	return OpInvalid
}

// IsBinaryOp reports whether o is an arithmetic/logical binary operation.
func (o Op) IsBinaryOp() bool { return o >= OpAdd && o <= OpFDiv }

// IsCompare reports whether o is a comparison.
func (o Op) IsCompare() bool { return o >= OpEq && o <= OpFGe }

// IsTerminator reports whether o terminates a basic block.
func (o Op) IsTerminator() bool { return o == OpBr || o == OpCondBr || o == OpRet }

// SwappedCompare returns the comparison opcode that yields the same result
// when the operands are swapped (e.g. lt -> gt), and ok=false when o is not
// a comparison.
func (o Op) SwappedCompare() (Op, bool) {
	switch o {
	case OpEq, OpNe, OpFEq, OpFNe:
		return o, true
	case OpLt:
		return OpGt, true
	case OpLe:
		return OpGe, true
	case OpGt:
		return OpLt, true
	case OpGe:
		return OpLe, true
	case OpFLt:
		return OpFGt, true
	case OpFLe:
		return OpFGe, true
	case OpFGt:
		return OpFLt, true
	case OpFGe:
		return OpFLe, true
	}
	return OpInvalid, false
}

// Instr is a single IR instruction. Instructions are SSA values; those with
// void results (store, br, ret, void calls) are not referenced as operands.
type Instr struct {
	Opcode Op
	Ty     *Type   // result type (VoidType for void-result instructions)
	Nam    string  // SSA name without the leading '%'; empty for void results
	Ops    []Value // operands (see per-op layout below)

	// Per-op extra payload:
	AllocaElem  *Type    // OpAlloca: element type
	AllocaCount int      // OpAlloca: number of elements
	Blocks      []*Block // OpBr: [dst]; OpCondBr: [true, false]; OpPhi: incoming blocks, parallel to Ops

	Parent *Block
	ID     int // deterministic ID assigned by Module.AssignIDs; -1 if unassigned
	MD     Metadata
}

// Operand layout per opcode:
//
//	alloca:  (none)
//	load:    [ptr]
//	store:   [value, ptr]
//	ptradd:  [ptr, index]
//	binops:  [lhs, rhs]
//	compare: [lhs, rhs]
//	casts:   [value]
//	select:  [cond, ifTrue, ifFalse]
//	phi:     incoming values, parallel to Blocks
//	call:    [callee, args...]
//	br:      (none); Blocks=[dst]
//	condbr:  [cond]; Blocks=[true, false]
//	ret:     [] or [value]

// Type returns the result type of the instruction.
func (in *Instr) Type() *Type { return in.Ty }

// Ident returns the SSA identifier of the instruction's result.
func (in *Instr) Ident() string {
	if in.Nam == "" {
		return "%<void>"
	}
	return "%" + in.Nam
}

// HasResult reports whether the instruction produces an SSA value.
func (in *Instr) HasResult() bool { return in.Ty != nil && in.Ty.Kind != VoidKind }

// IsTerminator reports whether the instruction ends its block.
func (in *Instr) IsTerminator() bool { return in.Opcode.IsTerminator() }

// MayWriteMemory reports whether the instruction may write to memory.
func (in *Instr) MayWriteMemory() bool {
	switch in.Opcode {
	case OpStore:
		return true
	case OpCall:
		return true // refined by mod/ref analysis
	}
	return false
}

// Callee returns the called value for a call instruction, or nil.
func (in *Instr) Callee() Value {
	if in.Opcode != OpCall || len(in.Ops) == 0 {
		return nil
	}
	return in.Ops[0]
}

// CalledFunction returns the statically known callee of a direct call, or
// nil for indirect calls and non-calls.
func (in *Instr) CalledFunction() *Function {
	f, _ := in.Callee().(*Function)
	return f
}

// CallArgs returns the argument operands of a call instruction.
func (in *Instr) CallArgs() []Value {
	if in.Opcode != OpCall {
		return nil
	}
	return in.Ops[1:]
}

// PhiIncoming returns the incoming value for predecessor block b, or nil.
func (in *Instr) PhiIncoming(b *Block) Value {
	if in.Opcode != OpPhi {
		return nil
	}
	for i, pb := range in.Blocks {
		if pb == b {
			return in.Ops[i]
		}
	}
	return nil
}

// SetPhiIncoming sets (or adds) the incoming value for predecessor b.
func (in *Instr) SetPhiIncoming(b *Block, v Value) {
	for i, pb := range in.Blocks {
		if pb == b {
			in.Ops[i] = v
			return
		}
	}
	in.Blocks = append(in.Blocks, b)
	in.Ops = append(in.Ops, v)
}

// RemovePhiIncoming deletes the incoming edge from block b, if present.
func (in *Instr) RemovePhiIncoming(b *Block) {
	for i, pb := range in.Blocks {
		if pb == b {
			in.Blocks = append(in.Blocks[:i], in.Blocks[i+1:]...)
			in.Ops = append(in.Ops[:i], in.Ops[i+1:]...)
			return
		}
	}
}

// Successors returns the successor blocks of a terminator (nil otherwise).
func (in *Instr) Successors() []*Block {
	switch in.Opcode {
	case OpBr, OpCondBr:
		return in.Blocks
	}
	return nil
}

// ReplaceUsesOf rewrites every operand equal to old with new.
func (in *Instr) ReplaceUsesOf(old, new Value) {
	for i, op := range in.Ops {
		if op == old {
			in.Ops[i] = new
		}
	}
}

// SetMD attaches metadata key=value to the instruction.
func (in *Instr) SetMD(key, value string) {
	if in.MD == nil {
		in.MD = Metadata{}
	}
	in.MD[key] = value
}

// String renders the instruction in textual IR form (without indentation).
func (in *Instr) String() string {
	var b strings.Builder
	if in.HasResult() {
		fmt.Fprintf(&b, "%s = ", in.Ident())
	}
	switch in.Opcode {
	case OpAlloca:
		fmt.Fprintf(&b, "alloca %s, %d", in.AllocaElem, in.AllocaCount)
	case OpLoad:
		fmt.Fprintf(&b, "load %s, %s", in.Ty, fmtIdent(in.Ops[0]))
	case OpStore:
		fmt.Fprintf(&b, "store %s %s, %s", in.Ops[0].Type(), fmtIdent(in.Ops[0]), fmtIdent(in.Ops[1]))
	case OpPtrAdd:
		fmt.Fprintf(&b, "ptradd %s, %s", fmtIdent(in.Ops[0]), fmtIdent(in.Ops[1]))
	case OpPhi:
		fmt.Fprintf(&b, "phi %s", in.Ty)
		for i := range in.Ops {
			if i > 0 {
				b.WriteString(",")
			}
			fmt.Fprintf(&b, " [ %s, %s ]", fmtIdent(in.Ops[i]), in.Blocks[i].Nam)
		}
	case OpCall:
		fmt.Fprintf(&b, "call %s %s(", in.Ty, fmtIdent(in.Ops[0]))
		for i, a := range in.Ops[1:] {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(fmtIdent(a))
		}
		b.WriteString(")")
	case OpBr:
		fmt.Fprintf(&b, "br %s", in.Blocks[0].Nam)
	case OpCondBr:
		fmt.Fprintf(&b, "condbr %s, %s, %s", fmtIdent(in.Ops[0]), in.Blocks[0].Nam, in.Blocks[1].Nam)
	case OpRet:
		if len(in.Ops) == 0 {
			b.WriteString("ret void")
		} else {
			fmt.Fprintf(&b, "ret %s", fmtIdent(in.Ops[0]))
		}
	case OpSelect:
		fmt.Fprintf(&b, "select %s, %s, %s", fmtIdent(in.Ops[0]), fmtIdent(in.Ops[1]), fmtIdent(in.Ops[2]))
	case OpI2P:
		fmt.Fprintf(&b, "i2p %s, %s", in.Ty, fmtIdent(in.Ops[0]))
	default:
		b.WriteString(in.Opcode.String())
		for i, op := range in.Ops {
			if i > 0 {
				b.WriteString(",")
			}
			b.WriteString(" " + fmtIdent(op))
		}
	}
	if len(in.MD) > 0 {
		b.WriteString(metadataSuffix(in.MD))
	}
	return b.String()
}

package ir

import "math"

// Eval is the one definition of what the operand-only opcodes mean: the
// 14 binary operations, 12 comparisons and 8 conversions, over raw
// 64-bit register bits (i1/i64 as the integer's bits, f64 as its IEEE
// bits, pointers as addresses). Unary opcodes ignore b. ok is false for
// integer division or remainder by zero — the caller traps or declines
// to fold — and for every opcode outside the set.
//
// The walker (interp.evalSimple), the compiled tier's fused
// superinstructions and float groups, and the constant folder
// (passes.ConstFold) all call it. The compiled tier's inlined
// integer/compare/conversion cases are the one measured second copy;
// interp's TestOpcodeSemantics pins each of them to this table.
//
// It is deliberately one flat switch: predicate-then-dispatch variants
// measured 5-7% slower per walker step.
func Eval(op Op, a, b uint64) (bits uint64, ok bool) {
	ai, bi := int64(a), int64(b)
	af, bf := math.Float64frombits(a), math.Float64frombits(b)
	switch op {
	case OpAdd:
		return uint64(ai + bi), true
	case OpSub:
		return uint64(ai - bi), true
	case OpMul:
		return uint64(ai * bi), true
	case OpDiv:
		if bi == 0 {
			return 0, false
		}
		return uint64(ai / bi), true
	case OpRem:
		if bi == 0 {
			return 0, false
		}
		return uint64(ai % bi), true
	case OpAnd:
		return a & b, true
	case OpOr:
		return a | b, true
	case OpXor:
		return a ^ b, true
	case OpShl:
		return uint64(ai << (b & 63)), true
	case OpShr:
		return uint64(ai >> (b & 63)), true
	case OpFAdd:
		return math.Float64bits(af + bf), true
	case OpFSub:
		return math.Float64bits(af - bf), true
	case OpFMul:
		return math.Float64bits(af * bf), true
	case OpFDiv:
		return math.Float64bits(af / bf), true
	case OpEq:
		return boolBits(ai == bi), true
	case OpNe:
		return boolBits(ai != bi), true
	case OpLt:
		return boolBits(ai < bi), true
	case OpLe:
		return boolBits(ai <= bi), true
	case OpGt:
		return boolBits(ai > bi), true
	case OpGe:
		return boolBits(ai >= bi), true
	case OpFEq:
		return boolBits(af == bf), true
	case OpFNe:
		return boolBits(af != bf), true
	case OpFLt:
		return boolBits(af < bf), true
	case OpFLe:
		return boolBits(af <= bf), true
	case OpFGt:
		return boolBits(af > bf), true
	case OpFGe:
		return boolBits(af >= bf), true
	case OpSIToFP:
		return math.Float64bits(float64(ai)), true
	case OpFPToSI:
		return uint64(int64(af)), true
	case OpZExt, OpTrunc:
		return a & 1, true
	case OpFBits, OpBitsF, OpP2I, OpI2P:
		return a, true // raw bit/address reinterpretation
	}
	return 0, false
}

func boolBits(c bool) uint64 {
	if c {
		return 1
	}
	return 0
}

// Bits returns the constant's raw register bits, the representation
// Eval and both execution tiers compute over.
func (c *Const) Bits() uint64 {
	if c.Ty.IsFloat() {
		return math.Float64bits(c.Flt)
	}
	return uint64(c.Int)
}

package loopbuilder

import (
	"fmt"

	"noelle/internal/ir"
	"noelle/internal/loops"
)

// EmitTripCount emits, at bld's insertion point, the dynamic trip count
// of a canonical header-exiting loop governed by giv: the number of times
// the loop body executes, computed from the governing IV's start, its
// constant step, and its loop-invariant exit bound, clamped at zero for
// ranges that never iterate. The parallelizing task generators evaluate
// it in the pre-header to size worker ranges (DOALL) or the dispatch
// fan-out (HELIX).
func EmitTripCount(bld *ir.Builder, giv *loops.IV) (ir.Value, error) {
	if giv.StepConst == nil || *giv.StepConst == 0 {
		return nil, fmt.Errorf("loopbuilder: governing IV has no constant non-zero step")
	}
	step := *giv.StepConst
	// Normalize the compare so the IV is conceptually the first operand.
	cmpOp := giv.ExitCmp.Opcode
	if !giv.InCycle(giv.ExitCmp.Ops[0]) {
		cmpOp, _ = cmpOp.SwappedCompare()
	}
	span := bld.CreateBinOp(ir.OpSub, giv.ExitBound, giv.Start, "tc.span")
	sgn := int64(1)
	if step < 0 {
		sgn = -1
	}
	var tc ir.Value
	switch cmpOp {
	case ir.OpLt, ir.OpGt:
		num := bld.CreateBinOp(ir.OpAdd, span, ir.ConstInt(step-sgn), "")
		tc = bld.CreateBinOp(ir.OpDiv, num, ir.ConstInt(step), "tc")
	case ir.OpLe, ir.OpGe:
		// i <= b is i < b+1 (and i >= b is i > b-1): the strict formula
		// over a span one step-sign longer.
		num := bld.CreateBinOp(ir.OpAdd, span, ir.ConstInt(step), "")
		tc = bld.CreateBinOp(ir.OpDiv, num, ir.ConstInt(step), "tc")
	case ir.OpNe:
		tc = bld.CreateBinOp(ir.OpDiv, span, ir.ConstInt(step), "tc")
	default:
		return nil, fmt.Errorf("loopbuilder: unsupported exit comparison %s", cmpOp)
	}
	neg := bld.CreateCmp(ir.OpLt, tc, ir.ConstInt(0), "")
	return bld.CreateSelect(neg, ir.ConstInt(0), tc, "tcc"), nil
}

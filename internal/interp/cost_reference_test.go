// The price list as it stood before it became package constants
// (cost.go): a 23-field model value every context carried and every
// compiled body was keyed by, priced by a switch. It is kept verbatim as
// the oracle TestPriceListMatchesReference holds opCost, externCost and
// Cost to, and the reference compiler (compile_reference_test.go) prices
// its ops from it.

package interp

import (
	"testing"

	"noelle/internal/ir"
)

// refModel assigns an abstract cycle cost to each executed instruction.
type refModel struct {
	IntALU    int64 // add/sub/logic/shift/compare
	IntMul    int64
	IntDiv    int64
	FloatALU  int64 // fadd/fsub
	FloatMul  int64
	FloatDiv  int64
	Load      int64
	Store     int64
	Branch    int64
	CallOver  int64 // call/return overhead
	Cast      int64
	Select    int64
	Phi       int64
	Alloca    int64
	ExternFix int64 // fixed cost of runtime externs (print etc.)

	// Communication runtime externs (internal/queue) are charged per
	// operation so pipelined schedules pay a modeled cost for every
	// cross-stage value and segment signal; the simulator's
	// QueueLatency is derived from these entries.
	QueueCreate int64
	QueuePush   int64
	QueuePop    int64
	QueueClose  int64
	// QueueBulkValue is what noelle_queue_push_n / pop_n add per value
	// moved to the fixed QueuePush / QueuePop they are charged like their
	// scalar forms: a bulk operation is one call and one index publication
	// plus a copy that grows with the count.
	QueueBulkValue int64
	SignalCreate   int64
	SignalWait     int64
	SignalFire     int64
}

// refPrices returns the model every evaluation ran under.
func refPrices() refModel {
	return refModel{
		IntALU:    1,
		IntMul:    3,
		IntDiv:    24,
		FloatALU:  3,
		FloatMul:  5,
		FloatDiv:  18,
		Load:      4,
		Store:     4,
		Branch:    1,
		CallOver:  6,
		Cast:      1,
		Select:    1,
		Phi:       0,
		Alloca:    1,
		ExternFix: 10,

		QueueCreate:    40,
		QueuePush:      12,
		QueuePop:       12,
		QueueClose:     8,
		QueueBulkValue: 1,
		SignalCreate:   20,
		SignalWait:     10,
		SignalFire:     8,
	}
}

// externCost returns the cycles charged for calling an extern of kind k.
func (c *refModel) externCost(k externKind) int64 {
	switch k {
	case externQueueCreate:
		return c.QueueCreate
	case externQueuePush:
		return c.QueuePush
	case externQueuePop:
		return c.QueuePop
	case externQueueClose:
		return c.QueueClose
	case externSignalCreate:
		return c.SignalCreate
	case externSignalWait:
		return c.SignalWait
	case externSignalFire:
		return c.SignalFire
	}
	return c.ExternFix
}

// Cost returns the cycle cost of executing in under the model.
func (c refModel) Cost(in *ir.Instr) int64 {
	switch in.Opcode {
	case ir.OpAdd, ir.OpSub, ir.OpAnd, ir.OpOr, ir.OpXor, ir.OpShl, ir.OpShr:
		return c.IntALU
	case ir.OpMul:
		return c.IntMul
	case ir.OpDiv, ir.OpRem:
		return c.IntDiv
	case ir.OpFAdd, ir.OpFSub:
		return c.FloatALU
	case ir.OpFMul:
		return c.FloatMul
	case ir.OpFDiv:
		return c.FloatDiv
	case ir.OpLoad:
		return c.Load
	case ir.OpStore:
		return c.Store
	case ir.OpBr, ir.OpCondBr, ir.OpRet:
		return c.Branch
	case ir.OpCall:
		return c.CallOver
	case ir.OpSIToFP, ir.OpFPToSI, ir.OpZExt, ir.OpTrunc:
		return c.Cast
	case ir.OpSelect:
		return c.Select
	case ir.OpPhi:
		return c.Phi
	case ir.OpAlloca:
		return c.Alloca
	case ir.OpPtrAdd:
		return c.IntALU
	default:
		if in.Opcode.IsCompare() {
			return c.IntALU
		}
		return 1
	}
}

// TestPriceListMatchesReference: every opcode, every extern kind and the
// per-value bulk price cost what the model priced them.
func TestPriceListMatchesReference(t *testing.T) {
	ref := refPrices()
	for op := ir.OpInvalid; op <= ir.OpRet; op++ {
		in := &ir.Instr{Opcode: op}
		if got, want := Cost(in), ref.Cost(in); got != want {
			t.Errorf("Cost(%v) = %d, want %d", op, got, want)
		}
	}
	if got := Cost(&ir.Instr{Opcode: ir.OpRet + 1}); got != 1 {
		t.Errorf("Cost of an opcode past OpRet = %d, want 1", got)
	}
	for k := externFix; k <= externSignalFire; k++ {
		if got, want := externCost[k], ref.externCost(k); got != want {
			t.Errorf("externCost[%d] = %d, want %d", k, got, want)
		}
	}
	if len(externCost) != int(externSignalFire)+1 {
		t.Errorf("%d extern prices, want %d", len(externCost), externSignalFire+1)
	}
	if CostQueueBulkValue != ref.QueueBulkValue {
		t.Errorf("CostQueueBulkValue = %d, want %d", CostQueueBulkValue, ref.QueueBulkValue)
	}
}

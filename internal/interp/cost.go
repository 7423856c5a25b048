// Package interp executes IR modules in a flat memory model. It stands in
// for the paper's native execution substrate: the profiler runs it to
// collect hotness statistics, transformation tests run it to check semantic
// equivalence, the multicore timing simulator consumes the
// per-instruction cost attribution it produces, and the noelle_dispatch
// extern runs parallelized task workers concurrently on real cores over
// forked execution contexts that share one memory image (see README.md).
package interp

import "noelle/internal/ir"

// CostModel assigns an abstract cycle cost to each executed instruction.
// The defaults approximate a simple in-order core: they only need to be
// *relatively* plausible, since every evaluation in this repo compares
// configurations under the same model.
type CostModel struct {
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
	// cross-stage value and segment signal; machine.CalibratedConfig
	// derives its QueueLatency from these entries.
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

// DefaultCostModel returns the cost model used throughout the evaluation.
func DefaultCostModel() CostModel {
	return CostModel{
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

// externKind names the cost-model entry an extern is charged from. The
// registry resolves it from the extern's name once, at registration, so a
// call indexes the model instead of comparing strings.
type externKind uint8

const (
	externFix externKind = iota // everything without an entry of its own
	externQueueCreate
	externQueuePush
	externQueuePop
	externQueueClose
	externSignalCreate
	externSignalWait
	externSignalFire
)

var externKinds = map[string]externKind{
	ExternQueueCreate:  externQueueCreate,
	ExternQueuePush:    externQueuePush,
	ExternQueuePop:     externQueuePop,
	ExternQueuePushN:   externQueuePush,
	ExternQueuePopN:    externQueuePop,
	ExternQueueClose:   externQueueClose,
	ExternSignalCreate: externSignalCreate,
	ExternSignalWait:   externSignalWait,
	ExternSignalFire:   externSignalFire,
}

// externCost returns the cycles charged for calling an extern of kind k.
func (c *CostModel) externCost(k externKind) int64 {
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

// ExternCost returns the cycles charged for calling the named extern:
// communication runtime externs have per-op entries, everything else pays
// the fixed extern cost. Charged at the call site in both sequential and
// parallel dispatch, so Cycles totals stay mode-independent (time spent
// blocked on a queue or signal is wall-clock, not modeled cycles).
func (c CostModel) ExternCost(name string) int64 {
	return c.externCost(externKinds[name])
}

// Cost returns the cycle cost of executing in under the model.
func (c CostModel) Cost(in *ir.Instr) int64 {
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

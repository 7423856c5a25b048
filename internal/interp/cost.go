// Package interp executes IR modules in a flat memory model. It stands in
// for the paper's native execution substrate: the profiler runs it to
// collect hotness statistics, transformation tests run it to check semantic
// equivalence, the multicore timing simulator consumes the
// per-instruction cost attribution it produces, and the noelle_dispatch
// extern runs parallelized task workers concurrently on real cores over
// forked execution contexts that share one memory image (see README.md).
package interp

import "noelle/internal/ir"

// The price list: the abstract cycles every executed instruction and
// extern call is charged. The values approximate a simple in-order core:
// they only need to be *relatively* plausible, since every evaluation in
// this repo compares configurations under the same prices. They are
// constants, so the walker, the compiled tier (which bakes them into its
// ops), the planners and the timing simulator can never disagree; a
// re-pricing is an edit here, checked by TestPriceListMatchesReference.
const (
	CostIntALU    int64 = 1 // add/sub/logic/shift/compare/ptradd
	CostIntMul    int64 = 3
	CostIntDiv    int64 = 24
	CostFloatALU  int64 = 3 // fadd/fsub
	CostFloatMul  int64 = 5
	CostFloatDiv  int64 = 18
	CostLoad      int64 = 4
	CostStore     int64 = 4
	CostBranch    int64 = 1
	CostCallOver  int64 = 6 // call/return overhead
	CostCast      int64 = 1
	CostSelect    int64 = 1
	CostPhi       int64 = 0
	CostAlloca    int64 = 1
	CostExternFix int64 = 10 // fixed cost of runtime externs (print etc.)

	// Communication runtime externs (internal/queue) are charged per
	// operation so pipelined schedules pay a modeled cost for every
	// cross-stage value and segment signal; machine.QueueOpCycles prices
	// a DSWP stage boundary from these.
	CostQueueCreate int64 = 40
	CostQueuePush   int64 = 12
	CostQueuePop    int64 = 12
	CostQueueClose  int64 = 8
	// CostQueueBulkValue is what noelle_queue_push_n / pop_n add per value
	// moved to the fixed CostQueuePush / CostQueuePop they are charged
	// like their scalar forms: a bulk operation is one call and one index
	// publication plus a copy that grows with the count.
	CostQueueBulkValue int64 = 1
	CostSignalCreate   int64 = 20
	CostSignalWait     int64 = 10
	CostSignalFire     int64 = 8
)

// opCost prices each opcode; Cost reads nothing else of an instruction.
// Opcodes without an entry of their own (the bit reinterpretations, and
// OpInvalid) cost 1.
var opCost = [ir.OpRet + 1]int64{
	ir.OpInvalid: 1,
	ir.OpAlloca:  CostAlloca, ir.OpLoad: CostLoad, ir.OpStore: CostStore, ir.OpPtrAdd: CostIntALU,
	ir.OpAdd: CostIntALU, ir.OpSub: CostIntALU, ir.OpMul: CostIntMul, ir.OpDiv: CostIntDiv, ir.OpRem: CostIntDiv,
	ir.OpAnd: CostIntALU, ir.OpOr: CostIntALU, ir.OpXor: CostIntALU, ir.OpShl: CostIntALU, ir.OpShr: CostIntALU,
	ir.OpFAdd: CostFloatALU, ir.OpFSub: CostFloatALU, ir.OpFMul: CostFloatMul, ir.OpFDiv: CostFloatDiv,
	ir.OpEq: CostIntALU, ir.OpNe: CostIntALU, ir.OpLt: CostIntALU, ir.OpLe: CostIntALU, ir.OpGt: CostIntALU, ir.OpGe: CostIntALU,
	ir.OpFEq: CostIntALU, ir.OpFNe: CostIntALU, ir.OpFLt: CostIntALU, ir.OpFLe: CostIntALU, ir.OpFGt: CostIntALU, ir.OpFGe: CostIntALU,
	ir.OpSIToFP: CostCast, ir.OpFPToSI: CostCast, ir.OpZExt: CostCast, ir.OpTrunc: CostCast,
	ir.OpFBits: 1, ir.OpBitsF: 1, ir.OpP2I: 1, ir.OpI2P: 1,
	ir.OpSelect: CostSelect, ir.OpPhi: CostPhi, ir.OpCall: CostCallOver,
	ir.OpBr: CostBranch, ir.OpCondBr: CostBranch, ir.OpRet: CostBranch,
}

// Cost returns the cycles charged for executing in (for a call, the call
// overhead only: the callee's body, or an extern's own price, is charged
// where it runs).
func Cost(in *ir.Instr) int64 {
	if uint(in.Opcode) < uint(len(opCost)) {
		return opCost[in.Opcode]
	}
	return 1
}

// externKind names the price an extern is charged. The registry resolves
// it from the extern's name once, at registration, so a call indexes
// externCost instead of comparing strings. Charged at the call site in
// both sequential and parallel dispatch, so Cycles totals stay
// mode-independent (time spent blocked on a queue or signal is
// wall-clock, not modeled cycles).
type externKind uint8

const (
	externFix externKind = iota // everything without a price of its own
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

// externCost is the cycles charged for calling an extern of each kind.
var externCost = [...]int64{
	externFix:          CostExternFix,
	externQueueCreate:  CostQueueCreate,
	externQueuePush:    CostQueuePush,
	externQueuePop:     CostQueuePop,
	externQueueClose:   CostQueueClose,
	externSignalCreate: CostSignalCreate,
	externSignalWait:   CostSignalWait,
	externSignalFire:   CostSignalFire,
}

// Package timesq is the NOELLE-based Time-Squeezer custom tool (paper
// Section 3): it generates code optimized for timing-speculative
// micro-architectures by (1) canonicalizing compare instructions so the
// operand enabling the faster clock is in the favourable position, (2)
// re-scheduling instructions with SCD so operations needing the same
// clock period are grouped, and (3) injecting clock_set instructions at
// the boundaries of clock regions. ISL and the PDG drive the per-island
// analysis of compares.
package timesq

import (
	"noelle/internal/core"
	"noelle/internal/graph"
	"noelle/internal/interp"
	"noelle/internal/ir"
)

// Clock regions: timing-speculative cores run integer ops on a tighter
// clock than float ops (which have longer critical paths).
const (
	clockFast = 0 // integer/logic/compares
	clockSlow = 1 // float arithmetic and division
)

// Result summarizes the transformation.
type Result struct {
	// SwappedCompares counts compares whose operands were canonicalized.
	SwappedCompares int
	// ClockSets counts injected clock_set calls.
	ClockSets int
	// ClockSetsUnscheduled is the count a naive (unscheduled) placement
	// would need — the scheduling win reported by the evaluation.
	ClockSetsUnscheduled int
	// Islands is the number of compare-dependence islands analyzed.
	Islands int
}

// clockOf classifies the clock period an instruction needs.
func clockOf(in *ir.Instr) int {
	switch in.Opcode {
	case ir.OpFAdd, ir.OpFSub, ir.OpFMul, ir.OpFDiv,
		ir.OpFEq, ir.OpFNe, ir.OpFLt, ir.OpFLe, ir.OpFGt, ir.OpFGe,
		ir.OpSIToFP, ir.OpFPToSI, ir.OpDiv, ir.OpRem:
		return clockSlow
	}
	return clockFast
}

// Run optimizes the module for a timing-speculative core.
func Run(n *core.Noelle) Result {
	n.Use(core.AbsLoop)
	n.Use(core.AbsForest)
	n.Use(core.AbsISL)
	var res Result
	clockFn := n.Mod.DeclareFunction(interp.ExternClockSet, ir.FuncOf(ir.VoidType, ir.I64Type))

	for _, f := range n.Mod.Functions {
		if f.IsDeclaration() {
			continue
		}
		fpdg := n.FunctionPDG(f)

		// ---- compare canonicalization, per dependence island ----
		// Build the compare dependence graph: compares connected through
		// shared operands form islands analyzed together (ISL).
		cmps := graph.New[*ir.Instr]()
		f.Instrs(func(in *ir.Instr) bool {
			if in.Opcode.IsCompare() {
				cmps.AddNode(in)
			}
			return true
		})
		for _, a := range cmps.Nodes() {
			for _, e := range fpdg.OutEdges(a) {
				if e.Control || e.Memory {
					continue
				}
				if cmps.Has(e.To) {
					cmps.AddEdge(a, e.To)
				}
			}
			for _, b := range cmps.Nodes() {
				if a != b && sharesOperand(a, b) {
					cmps.AddEdge(a, b)
				}
			}
		}
		for _, island := range cmps.Islands() {
			res.Islands++
			for _, cmp := range island {
				// Canonical form: constant operand second (the
				// speculative comparator resolves constant-vs-register
				// compares on the fast clock).
				if _, isConst := cmp.Ops[0].(*ir.Const); !isConst {
					continue
				}
				if _, isConst := cmp.Ops[1].(*ir.Const); isConst {
					continue // constant folding's job
				}
				swapped, ok := cmp.Opcode.SwappedCompare()
				if !ok {
					continue
				}
				cmp.Opcode = swapped
				cmp.Ops[0], cmp.Ops[1] = cmp.Ops[1], cmp.Ops[0]
				res.SwappedCompares++
			}
		}

		// ---- clock-region scheduling ----
		sched := n.Scheduler(f)
		for _, b := range f.Blocks {
			res.ClockSetsUnscheduled += transitions(b)
			sched.ReorderBlock(b, func(in *ir.Instr) int { return clockOf(in) })
		}

		// ---- clock_set injection at region boundaries ----
		bld := ir.NewBuilder()
		for _, b := range f.Blocks {
			cur := clockFast // block entry default
			for _, in := range append([]*ir.Instr(nil), b.Instrs...) {
				if in.Opcode == ir.OpPhi || in.IsTerminator() {
					continue
				}
				if c := clockOf(in); c != cur {
					bld.SetInsertionBefore(in)
					bld.CreateCall(clockFn, []ir.Value{ir.ConstInt(int64(c))}, "")
					res.ClockSets++
					cur = c
				}
			}
		}
		n.InvalidateFunction(f)
	}
	return res
}

func sharesOperand(a, b *ir.Instr) bool {
	for _, x := range a.Ops {
		for _, y := range b.Ops {
			if x == y {
				if _, isConst := x.(*ir.Const); !isConst {
					return true
				}
			}
		}
	}
	return false
}

// transitions counts clock switches in the block's current order — the
// cost of naive placement without SCD.
func transitions(b *ir.Block) int {
	cur := clockFast
	nr := 0
	for _, in := range b.Instrs {
		if in.Opcode == ir.OpPhi || in.IsTerminator() {
			continue
		}
		if c := clockOf(in); c != cur {
			nr++
			cur = c
		}
	}
	return nr
}

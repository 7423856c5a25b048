// Package licm is the NOELLE-based Loop Invariant Code Motion custom tool
// (paper Section 3): it walks the loop forest innermost-first (FR), asks
// the INV abstraction (the paper's Algorithm 2, powered by the PDG) for
// invariant instructions, and hoists them with the Loop Builder. The
// entire tool is a few dozen lines — the point of Table 3's 92.7% LoC
// reduction.
package licm

import (
	"noelle/internal/core"
	"noelle/internal/ir"
	"noelle/internal/loopbuilder"
	"noelle/internal/loops"
)

// Result reports what the tool did.
type Result struct {
	Hoisted int
	Loops   int
}

// Run hoists loop invariants across the whole module.
func Run(n *core.Noelle) Result {
	n.Use(core.AbsLB)
	var res Result
	for _, f := range n.Mod.Functions {
		if f.IsDeclaration() {
			continue
		}
		// Innermost-first so invariants bubble outward through the nest
		// (FR provides the order).
		for _, node := range n.Forest(f).InnermostFirst() {
			res.Loops++
			if hoisted := hoistLoop(n, node.LS); hoisted > 0 {
				res.Hoisted += hoisted
				// Hoisting changed the function: refresh cached analyses.
				n.InvalidateFunction(f)
			}
		}
	}
	return res
}

// hoistLoop hoists ls's invariants in dependence order: an instruction
// moves once all of its operands are defined outside the (shrinking) loop.
func hoistLoop(n *core.Noelle, ls *loops.LS) int {
	l := n.Loop(ls)
	pending := l.Invariants.List()
	hoisted := 0
	for progress := true; progress; {
		progress = false
		var next []*ir.Instr
		for _, in := range pending {
			if !operandsAvailableOutside(ls, in) || !speculationSafe(in) {
				next = append(next, in)
				continue
			}
			if loopbuilder.Hoist(ls, in) {
				hoisted++
				progress = true
			}
		}
		pending = next
	}
	return hoisted
}

func operandsAvailableOutside(ls *loops.LS, in *ir.Instr) bool {
	for _, op := range in.Ops {
		if !ls.DefinedOutside(op) {
			return false
		}
	}
	return true
}

// speculationSafe rejects instructions that could trap when the loop body
// never executes (hoisting makes them unconditional).
func speculationSafe(in *ir.Instr) bool {
	switch in.Opcode {
	case ir.OpDiv, ir.OpRem:
		c, ok := in.Ops[1].(*ir.Const)
		return ok && c.Int != 0
	}
	return true
}

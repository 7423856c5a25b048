package loops

import (
	"noelle/internal/ir"
	"noelle/internal/pdg"
)

// newLoopDG derives the loop dependence graph from the function PDG: the
// loop's instructions become internal nodes, out-of-loop producers and
// consumers become external nodes (live-ins/live-outs), and every data
// edge between internal nodes is classified as loop-carried or not. This
// is the refinement the paper describes: "when a pass requests the loop
// dependence graph from a PDG, NOELLE runs loop-centric analyses to refine
// the dependences included in the PDG for the specific loop in-question."
// It is one pdg.Graph.Restrict pass over the function PDG's edges; the
// refinement edits copies, never the function PDG.
func newLoopDG(ls *LS, b *body, fpdg *pdg.Graph, ivs *IVAnalysis) *pdg.Graph {
	return fpdg.Restrict(b.instrs, func(e *pdg.Edge) bool {
		refineCarried(ls, ivs, e)
		// A dropped edge is one the affine analysis disproved.
		return !(e.Memory && e.Class == dropped)
	})
}

// dropped is a sentinel class used internally to delete edges the affine
// analysis disproves entirely.
const dropped pdg.DepClass = -1

// refineCarried sets e.LoopCarried for an edge between two in-loop
// instructions, or marks it dropped when the dependence cannot exist.
func refineCarried(ls *LS, ivs *IVAnalysis, e *pdg.Edge) {
	if e.Control {
		e.LoopCarried = false
		return
	}
	if !e.Memory {
		// A register dependence is carried exactly when it flows into a
		// header phi along a back edge: the def from iteration i is
		// consumed by the phi at iteration i+1.
		e.LoopCarried = e.To.Opcode == ir.OpPhi && e.To.Parent == ls.Header
		return
	}
	// Memory dependence: try to prove same-iteration-only access.
	pa, okA := accessPtr(e.From)
	pb, okB := accessPtr(e.To)
	if !okA || !okB {
		e.LoopCarried = true // calls: conservative
		return
	}
	// Accesses rooted at the same in-loop alloca touch storage that is
	// fresh every iteration: never loop-carried.
	if ba := allocaRoot(ls, pa); ba != nil && ba == allocaRoot(ls, pb) {
		e.LoopCarried = false
		return
	}
	affA, okA := AnalyzeAddr(ls, ivs, pa)
	affB, okB := AnalyzeAddr(ls, ivs, pb)
	if !okA || !okB || affA.Base != affB.Base {
		e.LoopCarried = true
		return
	}
	// Same base object.
	if affA.IV == affB.IV && affA.Coeff == affB.Coeff {
		if affA.IV == nil {
			// Both addresses are loop-invariant: same cell every
			// iteration => carried (unless offsets provably differ, which
			// also kills the intra-iteration dependence).
			if affA.OffsetKnown && affB.OffsetKnown && affA.Offset != affB.Offset {
				e.Class = dropped
				return
			}
			e.LoopCarried = true
			return
		}
		step, stepKnown := affA.IV.StepValue()
		if affA.OffsetKnown && affB.OffsetKnown {
			delta := affB.Offset - affA.Offset
			if delta == 0 {
				// Identical affine address: conflicts only within one
				// iteration (consecutive iterations use different IV
				// values when coeff*step != 0).
				if stepKnown && step != 0 && affA.Coeff != 0 {
					e.LoopCarried = false
					e.Must = true
					return
				}
				e.LoopCarried = true
				return
			}
			if stepKnown && step != 0 && affA.Coeff != 0 {
				stride := affA.Coeff * step
				if delta%stride != 0 {
					// Addresses from any pair of iterations never
					// coincide: the dependence does not exist.
					e.Class = dropped
					return
				}
				e.LoopCarried = true // carried with distance delta/stride
				return
			}
		}
		e.LoopCarried = true
		return
	}
	e.LoopCarried = true
}

// allocaRoot peels ptradds and returns the in-loop alloca the pointer is
// rooted at, or nil.
func allocaRoot(ls *LS, v ir.Value) *ir.Instr {
	for {
		in, ok := v.(*ir.Instr)
		if !ok {
			return nil
		}
		if in.Opcode == ir.OpAlloca {
			if ls.ContainsInstr(in) {
				return in
			}
			return nil
		}
		if in.Opcode != ir.OpPtrAdd {
			return nil
		}
		v = in.Ops[0]
	}
}

// accessPtr returns the pointer operand of a load or store.
func accessPtr(in *ir.Instr) (ir.Value, bool) {
	switch in.Opcode {
	case ir.OpLoad:
		return in.Ops[0], true
	case ir.OpStore:
		return in.Ops[1], true
	}
	return nil, false
}

// liveIns returns the out-of-loop values consumed inside the loop: SSA
// values defined outside (instructions, parameters) that in-loop
// instructions use. Header-phi entry incomings count as live-ins too.
func liveIns(ls *LS, b *body) []ir.Value {
	seen := map[ir.Value]bool{}
	var out []ir.Value
	for _, in := range b.instrs {
		for _, v := range in.Ops {
			if !ls.DefinedOutside(v) {
				continue
			}
			switch v.(type) {
			case *ir.Const, *ir.Global, *ir.Function:
				continue // constants are rematerialized, not communicated
			}
			if !seen[v] {
				seen[v] = true
				out = append(out, v)
			}
		}
	}
	return out
}

// LiveOuts returns the in-loop definitions used after the loop.
func LiveOuts(ls *LS) []*ir.Instr {
	var out []*ir.Instr
	seen := map[*ir.Instr]bool{}
	ls.Fn.Instrs(func(user *ir.Instr) bool {
		if ls.ContainsInstr(user) {
			return true
		}
		for _, op := range user.Ops {
			if def, ok := op.(*ir.Instr); ok && ls.ContainsInstr(def) && !seen[def] {
				seen[def] = true
				out = append(out, def)
			}
		}
		return true
	})
	return out
}

// Package carat is the NOELLE-based CARAT custom tool (paper Section 3):
// it injects runtime address-validation guards before memory instructions
// that cannot be proven valid at compile time, then uses the PDG,
// invariants, and dominance to elide and hoist redundant guards. The
// companion runtime (the interpreter's carat_guard extern) counts and
// validates the guarded addresses.
package carat

import (
	"noelle/internal/analysis"
	"noelle/internal/core"
	"noelle/internal/interp"
	"noelle/internal/ir"
	"noelle/internal/loops"
)

// Result summarizes the injection.
type Result struct {
	// Accesses is the number of memory instructions examined.
	Accesses int
	// Proven is how many were statically validated (no guard needed).
	Proven int
	// Guards is how many guard calls were inserted.
	Guards int
	// Elided counts guards skipped because a dominating guard covers the
	// same pointer value.
	Elided int
	// Hoisted counts guards placed in loop pre-headers instead of bodies.
	Hoisted int
}

// Run instruments the module.
func Run(n *core.Noelle) Result {
	n.Use(core.AbsLB)
	n.Use(core.AbsIVS)
	var res Result
	pt := n.PointsTo()
	guardFn := n.Mod.DeclareFunction(interp.ExternGuard, ir.FuncOf(ir.VoidType, ir.I64Type))

	for _, f := range n.Mod.Functions {
		if f.IsDeclaration() {
			continue
		}
		dt := analysis.NewDomTree(f)
		li := analysis.NewLoopInfo(f)
		invCache := map[*analysis.NaturalLoop]*loops.Invariants{}

		// guarded maps a pointer SSA value to blocks holding its guard.
		guarded := map[ir.Value][]*ir.Instr{}
		bld := ir.NewBuilder()

		type pending struct {
			access *ir.Instr
			ptr    ir.Value
		}
		var work []pending
		f.Instrs(func(in *ir.Instr) bool {
			var ptr ir.Value
			switch in.Opcode {
			case ir.OpLoad:
				ptr = in.Ops[0]
			case ir.OpStore:
				ptr = in.Ops[1]
			default:
				return true
			}
			res.Accesses++
			if proveValid(pt, ptr) {
				res.Proven++
				return true
			}
			work = append(work, pending{access: in, ptr: ptr})
			return true
		})

		for _, w := range work {
			// Elide when a guard of the same pointer value dominates.
			dominated := false
			for _, g := range guarded[w.ptr] {
				if dt.DominatesInstr(g, w.access) {
					dominated = true
					break
				}
			}
			if dominated {
				res.Elided++
				continue
			}
			// Hoist loop-invariant addresses to the pre-header.
			insertAt := w.access
			hoisted := false
			if nat := li.LoopOf(w.access.Parent); nat != nil {
				ls := loops.NewLS(f, nat)
				inv, ok := invCache[nat]
				if !ok {
					inv = loops.NewInvariants(ls, n.FunctionPDG(f), nil)
					invCache[nat] = inv
				}
				if invariantPtr(ls, inv, w.ptr) && ls.Preheader != nil {
					insertAt = ls.Preheader.Terminator()
					hoisted = true
				}
			}
			bld.SetInsertionBefore(insertAt)
			addr := bld.CreateCast(ir.OpP2I, w.ptr, "")
			g := bld.CreateCall(guardFn, []ir.Value{addr}, "")
			guarded[w.ptr] = append(guarded[w.ptr], g)
			res.Guards++
			if hoisted {
				res.Hoisted++
			}
		}
		if res.Guards > 0 {
			n.InvalidateFunction(f)
		}
	}
	return res
}

// proveValid reports whether the access is statically known to target a
// live allocation: its points-to set is a non-empty set of identified
// objects (globals or allocas) and any constant offset stays in bounds.
func proveValid(pt interface {
	PointsToSet(ir.Value) []ir.Value
}, ptr ir.Value) bool {
	objs := pt.PointsToSet(ptr)
	if len(objs) == 0 {
		return false
	}
	base, off, known := baseAndConstOffset(ptr)
	for _, o := range objs {
		switch obj := o.(type) {
		case *ir.Global:
			if base == o && known {
				if off < 0 || off >= int64(obj.Elem.Size()) {
					return false
				}
				continue
			}
			return false
		case *ir.Instr: // alloca
			if base == o && known {
				if off < 0 || off >= int64(obj.AllocaElem.Size()*obj.AllocaCount) {
					return false
				}
				continue
			}
			return false
		default:
			return false
		}
	}
	return true
}

func baseAndConstOffset(v ir.Value) (ir.Value, int64, bool) {
	var off int64
	known := true
	for {
		in, ok := v.(*ir.Instr)
		if !ok || in.Opcode != ir.OpPtrAdd {
			return v, off, known
		}
		elem := int64(8)
		if in.Ty.IsPtr() {
			elem = int64(in.Ty.Elem.Size())
		}
		if c, isC := in.Ops[1].(*ir.Const); isC {
			off += c.Int * elem
		} else {
			known = false
		}
		v = in.Ops[0]
	}
}

func invariantPtr(ls *loops.LS, inv *loops.Invariants, ptr ir.Value) bool {
	if ls.DefinedOutside(ptr) {
		return true
	}
	in, ok := ptr.(*ir.Instr)
	return ok && inv.IsInvariant(in)
}

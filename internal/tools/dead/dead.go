// Package dead is the NOELLE-based DeadFunctionElimination custom tool
// (paper Section 3): it deletes functions that the *complete* call graph
// proves unreachable from main. Because NOELLE's CG resolves indirect
// calls through points-to analysis, the absence of an edge is a proof —
// exactly the property vanilla LLVM's call graph lacks (paper Section
// 2.2, "Call graph"). An unreachable function whose address surviving
// code still takes keeps its symbol with a stub body: no call reaches it,
// so what the body does is never observed.
package dead

import (
	"slices"

	"noelle/internal/core"
	"noelle/internal/ir"
)

// Result reports what the tool removed: Removed functions deleted, and
// Stubbed ones whose body it replaced because their address is taken.
type Result struct {
	Removed      int
	Stubbed      int
	InstrsBefore int
	InstrsAfter  int
}

// ReductionPercent is the binary-size reduction (IR instructions proxy).
func (r Result) ReductionPercent() float64 {
	if r.InstrsBefore == 0 {
		return 0
	}
	return 100 * float64(r.InstrsBefore-r.InstrsAfter) / float64(r.InstrsBefore)
}

// Run removes unreachable functions from the module. One whose address
// surviving code still takes keeps its symbol: a body of more than a
// return becomes a return of nothing or of zero, when the return type is
// void or scalar, and survives whole otherwise.
func Run(n *core.Noelle) Result {
	res := Result{InstrsBefore: n.Mod.NumInstrs()}
	keep := n.CallGraph().Reachable(n.Mod.FunctionByName("main"))
	// taken: the functions whose address a surviving body takes. A body
	// survives when its function is reachable, or taken and not stubbed.
	taken := map[*ir.Function]bool{}
	for changed := true; changed; {
		changed = false
		for _, f := range n.Mod.Functions {
			if keep[f] || taken[f] && f.Sig.Ret.Kind > ir.F64Kind {
				f.Instrs(func(in *ir.Instr) bool {
					for _, op := range in.Ops {
						if g, ok := op.(*ir.Function); ok && !taken[g] {
							taken[g], changed = true, true
						}
					}
					return true
				})
			}
		}
	}
	for _, f := range slices.Clone(n.Mod.Functions) {
		switch ret := f.Sig.Ret; {
		case f.IsDeclaration() || keep[f]: // declarations cost no binary size
		case !taken[f]:
			n.Mod.RemoveFunction(f)
			res.Removed++
		case ret.Kind <= ir.F64Kind && f.NumInstrs() > 1: // void, i1, i64 or f64
			stub := &ir.Instr{Opcode: ir.OpRet, Ty: ir.VoidType, Ops: []ir.Value{&ir.Const{Ty: ret}}, ID: -1}
			if ret.Kind == ir.VoidKind {
				stub.Ops = nil
			}
			f.Blocks = nil
			f.NewBlock("entry").Append(stub)
			res.Stubbed++
		}
	}
	if res.Removed+res.Stubbed > 0 {
		n.InvalidateModule()
	}
	res.InstrsAfter = n.Mod.NumInstrs()
	return res
}

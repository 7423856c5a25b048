package loops

import "noelle/internal/ir"

// Reduction is NOELLE's RD abstraction: a loop variable whose per-iteration
// updates are an associative, commutative fold (s += f(i), p *= x, ...), so
// its cross-iteration dependence can be eliminated by giving each worker a
// private copy and combining the copies after the loop.
type Reduction struct {
	Phi *ir.Instr // header phi carrying the accumulator
	Op  ir.Op     // the fold operator
	// SCC is the accumulator's update cycle.
	SCC []*ir.Instr
	// Identity is the operator's identity element used to seed private
	// copies.
	Identity *ir.Const
	// Start is the accumulator's value on loop entry.
	Start ir.Value
}

// reducibleOps maps fold operators to their identity elements. Float adds
// and muls are included: the paper's evaluation parallelizes float
// reductions too (bitwise-identical results are not promised by -ffast-math
// style reduction reordering, and the same holds here).
var reducibleOps = map[ir.Op]*ir.Const{
	ir.OpAdd:  ir.ConstInt(0),
	ir.OpMul:  ir.ConstInt(1),
	ir.OpAnd:  ir.ConstInt(-1),
	ir.OpOr:   ir.ConstInt(0),
	ir.OpXor:  ir.ConstInt(0),
	ir.OpFAdd: ir.ConstFloat(0),
	ir.OpFMul: ir.ConstFloat(1),
}

// ReductionAnalysis holds the reductions of one loop.
type ReductionAnalysis struct {
	LS         *LS
	Reductions []*Reduction
	byPhi      map[*ir.Instr]*Reduction
}

// ForPhi returns the reduction carried by phi, or nil.
func (ra *ReductionAnalysis) ForPhi(phi *ir.Instr) *Reduction { return ra.byPhi[phi] }

// newReductionAnalysis detects reductions over the loop's cyclic register
// SCCs (registerSCCs), excluding SCCs already claimed as induction
// variables.
func newReductionAnalysis(ls *LS, b *body, regSCCs [][]*ir.Instr, ivs *IVAnalysis) *ReductionAnalysis {
	ra := &ReductionAnalysis{LS: ls, byPhi: map[*ir.Instr]*Reduction{}}
	for _, scc := range regSCCs {
		r := classifyReduction(ls, scc, ivs)
		if r == nil {
			continue
		}
		// The accumulator's intermediate values must not leak: uses of SCC
		// members outside the SCC must be outside the loop (live-out) —
		// otherwise reordering partial sums would be observable.
		if reductionLeaks(b, scc) {
			continue
		}
		ra.Reductions = append(ra.Reductions, r)
		ra.byPhi[r.Phi] = r
	}
	return ra
}

func classifyReduction(ls *LS, scc []*ir.Instr, ivs *IVAnalysis) *Reduction {
	var phi *ir.Instr
	var op ir.Op
	opSet := false
	for _, in := range scc {
		switch {
		case in.Opcode == ir.OpPhi:
			if phi != nil || in.Parent != ls.Header {
				return nil
			}
			phi = in
		case reducibleOps[in.Opcode] != nil:
			if opSet && op != in.Opcode {
				return nil // mixed operators don't reduce
			}
			op = in.Opcode
			opSet = true
		default:
			return nil
		}
	}
	if phi == nil || !opSet {
		return nil
	}
	if ivs != nil && ivs.IVForPhi(phi) != nil {
		return nil // IVs are handled by the IV abstraction
	}
	// Each fold instruction must combine exactly one SCC value with values
	// computed outside the SCC.
	inSCC := map[*ir.Instr]bool{}
	for _, in := range scc {
		inSCC[in] = true
	}
	for _, in := range scc {
		if in == phi {
			continue
		}
		cnt := 0
		for _, o := range in.Ops {
			if d, ok := o.(*ir.Instr); ok && inSCC[d] {
				cnt++
			}
		}
		if cnt != 1 {
			return nil
		}
	}
	return &Reduction{
		Phi:      phi,
		Op:       op,
		SCC:      scc,
		Identity: reducibleOps[op],
		Start:    ls.EntryIncoming(phi),
	}
}

// reductionLeaks reports whether any SCC member's value is used inside the
// loop by a non-member (partial results observed mid-loop).
func reductionLeaks(b *body, scc []*ir.Instr) bool {
	inSCC := map[*ir.Instr]bool{}
	for _, in := range scc {
		inSCC[in] = true
	}
	for _, user := range b.instrs {
		if inSCC[user] {
			continue
		}
		for _, op := range user.Ops {
			if d, ok := op.(*ir.Instr); ok && inSCC[d] {
				return true
			}
		}
	}
	return false
}

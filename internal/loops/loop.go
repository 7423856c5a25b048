package loops

import (
	"noelle/internal/graph"
	"noelle/internal/ir"
	"noelle/internal/pdg"
	"noelle/internal/sccdag"
)

// Loop is NOELLE's L abstraction: the canonical loop bundling its
// structure (LS), its refined dependence graph, its SCCDAG, its induction
// variables, its invariants, and its reductions (paper Table 1, "Loop").
type Loop struct {
	LS         *LS
	DG         *pdg.Graph // loop dependence graph with carried refinement
	IVs        *IVAnalysis
	Invariants *Invariants
	Reductions *ReductionAnalysis
	SCCDAG     *sccdag.SCCDAG
	// LiveIn values flow into the loop; LiveOut instructions are consumed
	// after it (the Environment abstraction allocates one slot per entry).
	LiveIn  []ir.Value
	LiveOut []*ir.Instr

	// clonable caches clonableControl's result for the task generators.
	clonable map[*ir.Instr]bool
}

// Clonable reports whether in is loop control a parallelizer may
// replicate per worker (IV update cycles, derived-IV arithmetic,
// comparisons over IVs and invariants, and the branches they drive) —
// the instructions every DSWP stage clones so each stage steers its own
// copy of the loop.
func (l *Loop) Clonable(in *ir.Instr) bool { return l.clonable[in] }

// NewLoop builds the full loop abstraction from a function PDG. impureCall
// is the oracle used for invariant calls (nil = all calls impure).
func NewLoop(ls *LS, fpdg *pdg.Graph, impureCall func(*ir.Instr) bool) *Loop {
	b := newBody(ls)
	regSCCs := registerSCCs(b)
	inv := newInvariants(ls, b, fpdg, impureCall)
	ivs := newIVAnalysis(ls, b, regSCCs, inv)
	ldg := newLoopDG(ls, b, fpdg, ivs)
	rd := newReductionAnalysis(ls, b, regSCCs, ivs)
	clonable := clonableControl(ls, b, ivs, inv)
	dag := sccdag.Build(ldg, sccdag.Classifiers{
		IsReductionPhi: func(phi *ir.Instr) bool { return rd.ForPhi(phi) != nil },
		IsIVInstr:      func(in *ir.Instr) bool { return clonable[in] },
	})
	return &Loop{
		LS:         ls,
		DG:         ldg,
		IVs:        ivs,
		Invariants: inv,
		Reductions: rd,
		SCCDAG:     dag,
		LiveIn:     liveIns(ls, b),
		LiveOut:    LiveOuts(ls),
		clonable:   clonable,
	}
}

// body is a loop's instructions in layout order, numbered once per bundle:
// every analysis NewLoop runs shares the one list and its positions.
type body struct {
	instrs []*ir.Instr
	index  map[*ir.Instr]int32
}

func newBody(ls *LS) *body {
	b := &body{}
	ls.Instrs(func(in *ir.Instr) bool {
		b.instrs = append(b.instrs, in)
		return true
	})
	b.index = make(map[*ir.Instr]int32, len(b.instrs))
	for i, in := range b.instrs {
		b.index[in] = int32(i)
	}
	return b
}

// pos returns v's position in the body, or -1 when v is not an
// instruction of the loop.
func (b *body) pos(v ir.Value) int32 {
	if in, ok := v.(*ir.Instr); ok {
		if i, ok := b.index[in]; ok {
			return i
		}
	}
	return -1
}

// registerSCCs returns the cyclic strongly connected components of the
// loop's register dependence graph (def -> use between instructions of the
// loop), in Tarjan's order, each listing its members in layout order. IV
// and RD detection both classify these.
func registerSCCs(b *body) [][]*ir.Instr {
	var from, to []int32
	for i, in := range b.instrs {
		for _, op := range in.Ops {
			if d := b.pos(op); d >= 0 {
				from, to = append(from, d), append(to, int32(i))
			}
		}
	}
	g := graph.NewCSR(len(b.instrs), from, to)
	comps := g.SCCs()
	var out [][]*ir.Instr
	for k := int32(0); k < int32(comps.Len()); k++ {
		members := comps.Nodes(k)
		if len(members) == 1 && !g.HasArc(members[0], members[0]) {
			continue // no cycle
		}
		scc := make([]*ir.Instr, len(members))
		for i, v := range members {
			scc[i] = b.instrs[v]
		}
		out = append(out, scc)
	}
	return out
}

// clonableControl computes the set of "loop control" instructions a
// parallelizer can replicate per worker: IV update cycles, derived-IV
// arithmetic, comparisons over IVs and invariants, and branches driven by
// such comparisons. These join the IV SCC through the control-dependence
// cycle at the loop header, and must not force the loop to be sequential.
func clonableControl(ls *LS, b *body, ivs *IVAnalysis, inv *Invariants) map[*ir.Instr]bool {
	set := map[*ir.Instr]bool{}
	for _, iv := range ivs.IVs {
		for _, in := range iv.SCC {
			set[in] = true
		}
		for _, in := range iv.Derived {
			set[in] = true
		}
	}
	okOperand := func(v ir.Value) bool {
		if ls.DefinedOutside(v) {
			return true
		}
		in, ok := v.(*ir.Instr)
		if !ok {
			return true
		}
		return set[in] || inv.IsInvariant(in)
	}
	// Fixed point: comparisons over clonable values, then branches over
	// clonable comparisons.
	for changed := true; changed; {
		changed = false
		for _, in := range b.instrs {
			if set[in] {
				continue
			}
			switch {
			case in.Opcode.IsCompare() || in.Opcode.IsBinaryOp():
				if okOperand(in.Ops[0]) && okOperand(in.Ops[1]) {
					set[in] = true
					changed = true
				}
			case in.Opcode == ir.OpCondBr:
				if okOperand(in.Ops[0]) {
					set[in] = true
					changed = true
				}
			case in.Opcode == ir.OpBr:
				set[in] = true
				changed = true
			}
		}
	}
	return set
}

// CarriedDataDeps returns the loop-carried data dependence edges that are
// neither IV updates nor recognized reductions — the dependences that
// serialize the loop.
func (l *Loop) CarriedDataDeps() []*pdg.Edge {
	var out []*pdg.Edge
	l.DG.Edges(func(e *pdg.Edge) bool {
		if !e.LoopCarried || e.Control {
			return true
		}
		n := l.SCCDAG.NodeOf[e.From]
		if n != nil && (n.IsIV || n.Kind == sccdag.Reducible) && n == l.SCCDAG.NodeOf[e.To] {
			return true
		}
		out = append(out, e)
		return true
	})
	return out
}

// IsDOALL reports whether every SCC is Independent, an IV cycle, or a
// reduction — the DOALL legality condition.
func (l *Loop) IsDOALL() bool {
	for _, n := range l.SCCDAG.Nodes {
		if n.Kind == sccdag.Sequential && !n.IsIV {
			return false
		}
	}
	return l.IVs.GoverningIV() != nil
}

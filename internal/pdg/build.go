package pdg

import (
	"noelle/internal/alias"
	"noelle/internal/analysis"
	"noelle/internal/ir"
)

// Builder constructs function PDGs from an alias stack and whole-module
// points-to facts. The same builder is reused across functions so the
// (expensive) points-to fixed point is computed once, mirroring how
// noelle-meta-pdg-embed amortizes its alias analyses.
type Builder struct {
	Mod *ir.Module
	AA  alias.Analysis
	PT  *alias.PointsTo
}

// NewBuilder prepares a PDG builder with the default (most precise)
// analysis stack: type-basic + Andersen, combined SCAF-style.
func NewBuilder(m *ir.Module) *Builder {
	pt := alias.NewPointsTo(m)
	return &Builder{
		Mod: m,
		AA:  alias.NewCombined(alias.TypeBasicAA{}, alias.AndersenAA{PT: pt}),
		PT:  pt,
	}
}

// NewBaselineBuilder prepares a builder with only the LLVM-like alias
// analysis (used as the Figure 3 baseline). Points-to facts are still
// computed for call mod/ref summaries, but pointer aliasing uses the
// baseline analysis alone; call-vs-access dependences fall back to a
// conservative "calls touch everything" rule.
func NewBaselineBuilder(m *ir.Module) *Builder {
	return &Builder{Mod: m, AA: alias.TypeBasicAA{}, PT: nil}
}

// memAccess describes one memory-touching (or I/O-performing) instruction.
type memAccess struct {
	in     *ir.Instr
	ptr    ir.Value // nil for calls
	reads  bool
	writes bool
	io     bool // externally visible side effects (calls only)
}

// FunctionPDG builds the dependence graph of f: control dependences from
// the post-dominance frontier, register dependences from SSA def-use, and
// memory dependences from the alias stack. Memory edges are directed by
// program layout order; loop-carried classification happens when a loop
// dependence graph is derived (see the loops package).
func (b *Builder) FunctionPDG(f *ir.Function) *Graph {
	var instrs []*ir.Instr
	f.Instrs(func(in *ir.Instr) bool {
		instrs = append(instrs, in)
		return true
	})
	var edges []Edge
	if !f.IsDeclaration() {
		edges = b.addControlDeps(f, edges)
		edges = b.addRegisterDeps(f, edges)
		edges = b.addMemoryDeps(f, edges)
	}
	return NewGraph(instrs, edges, nil, nil)
}

// addControlDeps: block B is control-dependent on the terminator of A when
// A's branch decides whether B executes (Ferrante et al., via the
// post-dominance frontier).
func (b *Builder) addControlDeps(f *ir.Function, edges []Edge) []Edge {
	cfg := analysis.NewCFG(f)
	pdt := analysis.NewPostDomTree(f)
	pdf := pdt.Frontier(cfg)
	for _, blk := range f.Blocks {
		for _, ctrl := range pdf[blk] {
			term := ctrl.Terminator()
			if term == nil || term.Opcode != ir.OpCondBr {
				continue
			}
			for _, in := range blk.Instrs {
				edges = append(edges, Edge{From: term, To: in, Control: true, Must: true})
			}
		}
	}
	return edges
}

// addRegisterDeps adds SSA def-use edges (always must, never memory).
func (b *Builder) addRegisterDeps(f *ir.Function, edges []Edge) []Edge {
	f.Instrs(func(in *ir.Instr) bool {
		for _, op := range in.Ops {
			if def, ok := op.(*ir.Instr); ok {
				edges = append(edges, Edge{From: def, To: in, Class: RAW, Must: true})
			}
		}
		return true
	})
	return edges
}

// addMemoryDeps relates every conflicting pair of memory-touching
// instructions, directed by layout order.
func (b *Builder) addMemoryDeps(f *ir.Function, edges []Edge) []Edge {
	var accesses []memAccess
	f.Instrs(func(in *ir.Instr) bool {
		switch in.Opcode {
		case ir.OpLoad:
			accesses = append(accesses, memAccess{in: in, ptr: in.Ops[0], reads: true})
		case ir.OpStore:
			accesses = append(accesses, memAccess{in: in, ptr: in.Ops[1], writes: true})
		case ir.OpCall:
			acc := memAccess{in: in}
			if b.PT != nil {
				// Summaries refine what the callees can touch; a call
				// with no resolved target may do anything.
				callees := b.PT.Callees(in)
				if len(callees) == 0 {
					acc.reads, acc.writes, acc.io = true, true, true
				}
				for _, callee := range callees {
					if b.PT.FuncAccessesMemory(callee) {
						acc.reads, acc.writes = true, true
					}
					if b.PT.FuncHasSideEffects(callee) {
						acc.io = true
					}
				}
			} else {
				// Baseline: any call may touch any memory.
				acc.reads, acc.writes, acc.io = true, true, true
			}
			if acc.reads || acc.writes || acc.io {
				accesses = append(accesses, acc)
			}
		}
		return true
	})

	for i := 0; i < len(accesses); i++ {
		for j := i + 1; j < len(accesses); j++ {
			a, c := accesses[i], accesses[j]
			if a.io && c.io {
				// Two I/O operations must stay ordered: model as an
				// output dependence.
				edges = append(edges, Edge{From: a.in, To: c.in, Memory: true, Class: WAW, Must: true})
				continue
			}
			if !a.writes && !c.writes {
				continue // read-read never conflicts
			}
			res := b.accessAlias(a, c)
			if res == alias.NoAlias {
				continue
			}
			e := Edge{From: a.in, To: c.in, Memory: true, Must: res == alias.MustAlias}
			switch {
			case a.writes && c.writes:
				e.Class = WAW
			case a.writes && c.reads:
				e.Class = RAW
			default:
				e.Class = WAR
			}
			edges = append(edges, e)
		}
	}
	return edges
}

// accessAlias relates two accesses through the configured analyses.
func (b *Builder) accessAlias(a, c memAccess) alias.Result {
	switch {
	case a.ptr != nil && c.ptr != nil:
		return b.AA.Alias(a.ptr, c.ptr)
	case a.ptr == nil && c.ptr != nil:
		return b.callVsPtr(a.in, c.ptr)
	case a.ptr != nil && c.ptr == nil:
		return b.callVsPtr(c.in, a.ptr)
	default: // call vs call
		if b.PT != nil {
			if !b.PT.CallsAccessMemory(a.in, c.in) {
				return alias.NoAlias
			}
		}
		return alias.MayAlias
	}
}

func (b *Builder) callVsPtr(call *ir.Instr, ptr ir.Value) alias.Result {
	if b.PT == nil {
		return alias.MayAlias
	}
	if b.PT.CallModRefPtr(call, ptr) == alias.NoModRef {
		return alias.NoAlias
	}
	return alias.MayAlias
}

// PotentialMemoryPairs counts the ordered pairs of memory accesses that
// could conflict a priori (at least one write), and how many of them the
// analysis stack disproves. This is the Figure 3 metric.
func (b *Builder) PotentialMemoryPairs(f *ir.Function) (total, disproved int) {
	var accesses []memAccess
	f.Instrs(func(in *ir.Instr) bool {
		switch in.Opcode {
		case ir.OpLoad:
			accesses = append(accesses, memAccess{in: in, ptr: in.Ops[0], reads: true})
		case ir.OpStore:
			accesses = append(accesses, memAccess{in: in, ptr: in.Ops[1], writes: true})
		case ir.OpCall:
			accesses = append(accesses, memAccess{in: in, reads: true, writes: true})
		}
		return true
	})
	for i := 0; i < len(accesses); i++ {
		for j := i + 1; j < len(accesses); j++ {
			a, c := accesses[i], accesses[j]
			if !a.writes && !c.writes {
				continue
			}
			total++
			if b.accessAlias(a, c) == alias.NoAlias {
				disproved++
			}
		}
	}
	return total, disproved
}

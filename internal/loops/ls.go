// Package loops implements NOELLE's loop-centric abstractions: the loop
// structure LS, PDG-powered invariants INV (the paper's Algorithm 2),
// SCC-based induction variables IV (including governing-IV detection that
// works on any loop shape), reductions RD, the loop dependence graph with
// loop-carried refinement, and the full Loop abstraction L that bundles
// them. The loop forest FR lives here too.
//
// NewLoop numbers the loop's instructions once (layout order) and every
// analysis it runs shares that numbering: one Tarjan pass over the
// register dependences feeds both IV and RD detection, Algorithm 2 keeps
// its verdicts and its stack in one array, and the loop DG is cut from the
// function PDG in one pdg.Graph.Restrict pass. An LS keeps no list of its
// own, because tools hold an LS across transformations that move
// instructions in and out of its blocks; the bundle's list is a snapshot,
// like the rest of the bundle.
package loops

import (
	"noelle/internal/analysis"
	"noelle/internal/ir"
)

// LS is NOELLE's loop-structure abstraction: the shape of one loop
// (header, pre-header, latches, exits, body blocks). It is equivalent to
// LLVM's Loop, but it is a plain value owned by the caller.
type LS struct {
	Fn     *ir.Function
	Nat    *analysis.NaturalLoop
	Header *ir.Block
	// Preheader is the unique out-of-loop predecessor of the header (nil
	// when one does not exist; LoopBuilder can create it).
	Preheader *ir.Block
	Latches   []*ir.Block
	// Exits are the out-of-loop targets of exit edges.
	Exits []*ir.Block
	// ExitingBlocks are the in-loop sources of exit edges.
	ExitingBlocks []*ir.Block
	Depth         int
}

// NewLS derives the loop structure from a natural loop.
func NewLS(f *ir.Function, nat *analysis.NaturalLoop) *LS {
	ls := &LS{
		Fn:        f,
		Nat:       nat,
		Header:    nat.Header,
		Preheader: nat.Preheader(),
		Latches:   nat.Latches,
		Depth:     nat.Depth,
	}
	froms, tos := nat.ExitEdges()
	seenT := map[*ir.Block]bool{}
	seenF := map[*ir.Block]bool{}
	for i := range froms {
		if !seenF[froms[i]] {
			seenF[froms[i]] = true
			ls.ExitingBlocks = append(ls.ExitingBlocks, froms[i])
		}
		if !seenT[tos[i]] {
			seenT[tos[i]] = true
			ls.Exits = append(ls.Exits, tos[i])
		}
	}
	return ls
}

// Contains reports whether b is in the loop body.
func (ls *LS) Contains(b *ir.Block) bool { return ls.Nat.Contains(b) }

// ContainsInstr reports whether in is in the loop body.
func (ls *LS) ContainsInstr(in *ir.Instr) bool { return ls.Nat.ContainsInstr(in) }

// Blocks returns the loop's blocks in layout order.
func (ls *LS) Blocks() []*ir.Block { return ls.Nat.BlockList() }

// Instrs iterates the loop body's instructions.
func (ls *LS) Instrs(fn func(*ir.Instr) bool) { ls.Nat.Instrs(fn) }

// NumInstrs returns the loop body size in instructions.
func (ls *LS) NumInstrs() int {
	n := 0
	ls.Instrs(func(*ir.Instr) bool { n++; return true })
	return n
}

// HeaderPhis returns the phis of the loop header.
func (ls *LS) HeaderPhis() []*ir.Instr { return ls.Header.Phis() }

// LatchIncoming returns phi's incoming value along back edges; when several
// latches disagree the first is returned (our corpus has single latches).
func (ls *LS) LatchIncoming(phi *ir.Instr) ir.Value {
	for _, l := range ls.Latches {
		if v := phi.PhiIncoming(l); v != nil {
			return v
		}
	}
	return nil
}

// EntryIncoming returns phi's incoming value from outside the loop.
func (ls *LS) EntryIncoming(phi *ir.Instr) ir.Value {
	for i, b := range phi.Blocks {
		if !ls.Contains(b) {
			return phi.Ops[i]
		}
	}
	return nil
}

// IsDoWhileShaped reports whether the loop's only exiting block is a
// latch — the "do-while shape" LLVM's induction-variable analysis expects
// (paper Section 4.3).
func (ls *LS) IsDoWhileShaped() bool {
	if len(ls.ExitingBlocks) != 1 {
		return false
	}
	ex := ls.ExitingBlocks[0]
	for _, l := range ls.Latches {
		if l == ex {
			return true
		}
	}
	return false
}

// DefinedOutside reports whether value v is defined outside the loop
// (constants, globals, functions, parameters, and out-of-loop
// instructions).
func (ls *LS) DefinedOutside(v ir.Value) bool {
	in, ok := v.(*ir.Instr)
	if !ok {
		return true
	}
	return !ls.ContainsInstr(in)
}

// Forest is NOELLE's FR abstraction: the nesting forest of a function's
// loops, with the delete-reconnect property (removing a node re-attaches
// its children to its parent).
type Forest struct {
	Fn    *ir.Function
	Roots []*ForestNode
	nodes map[*analysis.NaturalLoop]*ForestNode
}

// ForestNode is one loop in the forest.
type ForestNode struct {
	LS       *LS
	Parent   *ForestNode
	Children []*ForestNode
}

// NewForest builds the loop forest of f.
func NewForest(f *ir.Function) *Forest {
	li := analysis.NewLoopInfo(f)
	fr := &Forest{Fn: f, nodes: map[*analysis.NaturalLoop]*ForestNode{}}
	for _, nat := range li.Loops {
		fr.nodes[nat] = &ForestNode{LS: NewLS(f, nat)}
	}
	for _, nat := range li.Loops {
		n := fr.nodes[nat]
		if nat.Parent != nil {
			p := fr.nodes[nat.Parent]
			n.Parent = p
			p.Children = append(p.Children, n)
		} else {
			fr.Roots = append(fr.Roots, n)
		}
	}
	return fr
}

// Nodes returns every loop node, outermost-first per nest.
func (fr *Forest) Nodes() []*ForestNode {
	var out []*ForestNode
	var walk func(n *ForestNode)
	walk = func(n *ForestNode) {
		out = append(out, n)
		for _, c := range n.Children {
			walk(c)
		}
	}
	for _, r := range fr.Roots {
		walk(r)
	}
	return out
}

// Remove deletes node n from the forest, re-attaching its children to n's
// parent (the paper's "adjust when a node is deleted to keep the
// connections between the parent and the children").
func (fr *Forest) Remove(n *ForestNode) {
	for _, c := range n.Children {
		c.Parent = n.Parent
	}
	if n.Parent == nil {
		fr.Roots = removeNode(fr.Roots, n)
		fr.Roots = append(fr.Roots, n.Children...)
	} else {
		n.Parent.Children = removeNode(n.Parent.Children, n)
		n.Parent.Children = append(n.Parent.Children, n.Children...)
	}
	n.Children = nil
	n.Parent = nil
}

func removeNode(s []*ForestNode, n *ForestNode) []*ForestNode {
	for i, x := range s {
		if x == n {
			return append(s[:i], s[i+1:]...)
		}
	}
	return s
}

// InnermostFirst returns the forest's loops ordered innermost-first (LICM
// hoists from innermost to outermost).
func (fr *Forest) InnermostFirst() []*ForestNode {
	nodes := fr.Nodes()
	var out []*ForestNode
	for i := len(nodes) - 1; i >= 0; i-- {
		out = append(out, nodes[i])
	}
	return out
}

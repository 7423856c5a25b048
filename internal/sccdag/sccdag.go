// Package sccdag implements NOELLE's augmented SCCDAG abstraction: the DAG
// of strongly connected components of a loop's dependence graph, with each
// node tagged Independent, Sequential, or Reducible according to how its
// dynamic instances relate across iterations (paper Section 2.2,
// "aSCCDAG"). Parallelizing transformations are strategies for scheduling
// the instances of these nodes: HELIX spreads instances of a node across
// cores, DSWP pins each node to a core, DOALL requires every node to be
// Independent (or clonable/reducible).
//
// Build numbers nothing itself: it runs on the loop dependence graph's own
// node positions, so Tarjan, the condensation and Kahn's order are passes
// over int32 CSR graphs (graph.CSR), and every order they produce — SCC
// members, Nodes, Succs, TopoOrder, each node's Carried list — is a
// function of the dependence graph's node and edge order alone.
package sccdag

import (
	"fmt"
	"slices"

	"noelle/internal/graph"
	"noelle/internal/ir"
	"noelle/internal/pdg"
)

// Kind classifies an SCC node.
type Kind int

// Node kinds.
const (
	// Independent: no loop-carried dependence among the node's dynamic
	// instances; iterations can run anywhere, any time.
	Independent Kind = iota
	// Sequential: instances must execute in iteration order.
	Sequential
	// Reducible: carried dependences exist but form a reduction that can
	// be privatized per worker and folded after the loop.
	Reducible
)

// String renders the kind; out-of-range values render as "invalid(N)"
// instead of masquerading as a legitimate classification.
func (k Kind) String() string {
	switch k {
	case Independent:
		return "independent"
	case Sequential:
		return "sequential"
	case Reducible:
		return "reducible"
	default:
		return fmt.Sprintf("invalid(%d)", int(k))
	}
}

// Node is one SCC of the loop dependence graph.
type Node struct {
	Instrs []*ir.Instr
	Kind   Kind
	// Carried lists the loop-carried edges internal to this SCC.
	Carried []*pdg.Edge
	// IsIV marks SCCs that form an induction-variable update cycle;
	// parallelizers clone these per worker instead of serializing them.
	IsIV bool
	// HasMemoryCarried is true when a carried edge is a memory dependence.
	HasMemoryCarried bool
}

// Contains reports whether in belongs to this node.
func (n *Node) Contains(in *ir.Instr) bool {
	for _, x := range n.Instrs {
		if x == in {
			return true
		}
	}
	return false
}

// SCCDAG is the condensation of a loop's dependence graph.
type SCCDAG struct {
	// Nodes are in topological order of the condensation (producers
	// first).
	Nodes  []*Node
	NodeOf map[*ir.Instr]*Node
	// Succs are dependence edges between nodes: an edge a -> b means b
	// consumes values (or memory state) produced by a.
	Succs map[*Node][]*Node
}

// Classifiers supplies the loop-level analyses the aSCCDAG needs to tag
// nodes; the loops package provides implementations.
type Classifiers struct {
	// IsReductionPhi reports whether the header phi carries a recognized
	// reduction.
	IsReductionPhi func(phi *ir.Instr) bool
	// IsIVInstr reports whether the instruction belongs to an induction
	// variable's update cycle.
	IsIVInstr func(in *ir.Instr) bool
}

// Build condenses the refined loop dependence graph ldg (internal nodes
// only) into an aSCCDAG. It works on ldg's node positions: Tarjan, the
// condensation and Kahn's order run on int32 CSR graphs.
func Build(ldg *pdg.Graph, cls Classifiers) *SCCDAG {
	instrs := ldg.InternalNodes()
	n := int32(len(instrs))
	from, to := make([]int32, 0, ldg.NumEdges()), make([]int32, 0, ldg.NumEdges())
	ldg.IndexedEdges(func(e *pdg.Edge, f, t int32) bool {
		if f < n && t < n {
			from, to = append(from, f), append(to, t)
			if e.LoopCarried {
				// A carried dependence also constrains the earlier
				// instruction's next instance: close the cycle so the SCC
				// reflects cross-iteration coupling.
				from, to = append(from, t), append(to, f)
			}
		}
		return true
	})
	dg := graph.NewCSR(int(n), from, to)
	comps := dg.SCCs()
	cond := dg.Condense(comps)

	s := &SCCDAG{
		Nodes:  make([]*Node, comps.Len()),
		NodeOf: make(map[*ir.Instr]*Node, n),
		Succs:  map[*Node][]*Node{},
	}
	backing := make([]Node, comps.Len())
	members := make([]*ir.Instr, 0, n)
	byComp := make([]*Node, comps.Len())
	for p, k := range cond.Topo() {
		node := &backing[p]
		first := len(members)
		for _, v := range comps.Nodes(k) {
			members = append(members, instrs[v])
			s.NodeOf[instrs[v]] = node
		}
		node.Instrs = members[first:len(members):len(members)]
		s.Nodes[p], byComp[k] = node, node
	}
	succs := make([]*Node, len(cond.Succ))
	for k, node := range byComp {
		first, last := cond.Off[k], cond.Off[k+1]
		for i, sc := range cond.Succs(int32(k)) {
			succs[first+int32(i)] = byComp[sc]
		}
		if last > first {
			s.Succs[node] = succs[first:last:last]
		}
	}

	// Collect carried edges per node and classify.
	ldg.IndexedEdges(func(e *pdg.Edge, f, t int32) bool {
		if e.LoopCarried && f < n && t < n && comps.Of[f] == comps.Of[t] {
			node := byComp[comps.Of[f]]
			node.Carried = append(node.Carried, e)
			if e.Memory {
				node.HasMemoryCarried = true
			}
		}
		return true
	})
	for _, node := range s.Nodes {
		classify(node, cls)
	}
	return s
}

func classify(n *Node, cls Classifiers) {
	if len(n.Carried) == 0 {
		n.Kind = Independent
		return
	}
	// IV cycles are sequential in principle but flagged for cloning.
	if cls.IsIVInstr != nil {
		allIV := true
		for _, in := range n.Instrs {
			if !cls.IsIVInstr(in) {
				allIV = false
				break
			}
		}
		if allIV {
			n.Kind = Sequential
			n.IsIV = true
			return
		}
	}
	if !n.HasMemoryCarried && cls.IsReductionPhi != nil {
		// Register-only carried cycle anchored at a reduction phi.
		for _, in := range n.Instrs {
			if in.Opcode == ir.OpPhi && cls.IsReductionPhi(in) {
				n.Kind = Reducible
				return
			}
		}
	}
	n.Kind = Sequential
}

// SequentialNodes returns the nodes that must serialize across iterations
// (Sequential and not an IV cycle).
func (s *SCCDAG) SequentialNodes() []*Node {
	var out []*Node
	for _, n := range s.Nodes {
		if n.Kind == Sequential && !n.IsIV {
			out = append(out, n)
		}
	}
	return out
}

// Counts returns how many nodes fall in each kind.
func (s *SCCDAG) Counts() (independent, sequential, reducible int) {
	for _, n := range s.Nodes {
		switch n.Kind {
		case Independent:
			independent++
		case Sequential:
			sequential++
		case Reducible:
			reducible++
		}
	}
	return
}

// TopoOrder returns nodes in dependence order (producers first): Kahn's
// order over Nodes and Succs, which is Nodes' own order, because Nodes is
// Kahn's order over the same successor lists with its sources seeded in
// the order Nodes lists them.
func (s *SCCDAG) TopoOrder() []*Node { return slices.Clone(s.Nodes) }

// Package graph provides the directed-graph machinery behind NOELLE's
// SCCDAG, loop and call-graph abstractions. CSR is the dense form the hot
// analyses use: Tarjan's strongly connected components, the condensation
// DAG and Kahn's topological order, all on int32 node numbers. Digraph is
// the map-keyed form for callers that are not hot (the call graph,
// timesq's comparison islands); its SCCs run on CSR.
package graph

import "sort"

// Digraph is a directed graph over nodes of comparable type N. The zero
// value is an empty graph ready to use.
type Digraph[N comparable] struct {
	nodes []N
	index map[N]int
	succs map[N][]N
	preds map[N][]N
}

// New returns an empty directed graph.
func New[N comparable]() *Digraph[N] {
	return &Digraph[N]{
		index: map[N]int{},
		succs: map[N][]N{},
		preds: map[N][]N{},
	}
}

// AddNode inserts n if not already present.
func (g *Digraph[N]) AddNode(n N) {
	if _, ok := g.index[n]; ok {
		return
	}
	g.index[n] = len(g.nodes)
	g.nodes = append(g.nodes, n)
}

// AddEdge inserts the edge from -> to (and both endpoints). Duplicate edges
// are kept out.
func (g *Digraph[N]) AddEdge(from, to N) {
	g.AddNode(from)
	g.AddNode(to)
	for _, s := range g.succs[from] {
		if s == to {
			return
		}
	}
	g.succs[from] = append(g.succs[from], to)
	g.preds[to] = append(g.preds[to], from)
}

// HasEdge reports whether from -> to exists.
func (g *Digraph[N]) HasEdge(from, to N) bool {
	for _, s := range g.succs[from] {
		if s == to {
			return true
		}
	}
	return false
}

// Nodes returns the nodes in insertion order.
func (g *Digraph[N]) Nodes() []N { return g.nodes }

// NumNodes returns the node count.
func (g *Digraph[N]) NumNodes() int { return len(g.nodes) }

// NumEdges returns the edge count.
func (g *Digraph[N]) NumEdges() int {
	n := 0
	for _, ss := range g.succs {
		n += len(ss)
	}
	return n
}

// Succs returns the successors of n in insertion order.
func (g *Digraph[N]) Succs(n N) []N { return g.succs[n] }

// Preds returns the predecessors of n in insertion order.
func (g *Digraph[N]) Preds(n N) []N { return g.preds[n] }

// Has reports whether n is a node of the graph.
func (g *Digraph[N]) Has(n N) bool {
	_, ok := g.index[n]
	return ok
}

// SCC is one strongly connected component, with nodes in insertion order.
type SCC[N comparable] struct {
	Nodes []N
	// HasInternalEdge is true when the component contains an edge between
	// its members (always true for size > 1; for singletons it indicates a
	// self-loop).
	HasInternalEdge bool
}

// Contains reports whether the component contains n.
func (s *SCC[N]) Contains(n N) bool {
	for _, x := range s.Nodes {
		if x == n {
			return true
		}
	}
	return false
}

// SCCs computes the strongly connected components (CSR.SCCs on the
// insertion-order numbering). Components are returned in reverse
// topological order of the condensation (callees/later nodes first), which
// is Tarjan's natural output order; each lists its nodes in insertion
// order.
func (g *Digraph[N]) SCCs() []*SCC[N] {
	var from, to []int32
	for v, n := range g.nodes {
		for _, s := range g.succs[n] {
			from = append(from, int32(v))
			to = append(to, int32(g.index[s]))
		}
	}
	csr := NewCSR(len(g.nodes), from, to)
	c := csr.SCCs()
	comps := make([]*SCC[N], c.Len())
	for k := range comps {
		members := c.Nodes(int32(k))
		comp := &SCC[N]{Nodes: make([]N, len(members))}
		for i, v := range members {
			comp.Nodes[i] = g.nodes[v]
		}
		comp.HasInternalEdge = len(members) > 1 || csr.HasArc(members[0], members[0])
		comps[k] = comp
	}
	return comps
}

// Islands returns the weakly connected components (the paper's ISL
// abstraction), each as a list of nodes in insertion order.
func (g *Digraph[N]) Islands() [][]N {
	visited := map[N]bool{}
	var islands [][]N
	for _, start := range g.nodes {
		if visited[start] {
			continue
		}
		var isl []N
		stack := []N{start}
		visited[start] = true
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			isl = append(isl, v)
			for _, w := range g.succs[v] {
				if !visited[w] {
					visited[w] = true
					stack = append(stack, w)
				}
			}
			for _, w := range g.preds[v] {
				if !visited[w] {
					visited[w] = true
					stack = append(stack, w)
				}
			}
		}
		sort.Slice(isl, func(i, j int) bool { return g.index[isl[i]] < g.index[isl[j]] })
		islands = append(islands, isl)
	}
	return islands
}

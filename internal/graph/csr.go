package graph

import "slices"

// CSR is a directed graph over the dense nodes 0..N-1 in compressed sparse
// row form: the successors of v are Succ[Off[v]:Off[v+1]]. It is what the
// hot analyses (the aSCCDAG, a loop's register SCCs) run Tarjan and Kahn
// on: no maps, one allocation per array.
type CSR struct {
	Off  []int32
	Succ []int32
}

// NewCSR builds the graph over n nodes from the arcs from[i] -> to[i],
// given in insertion order. Duplicate arcs are dropped, and each node's
// successors keep the order in which they were first added: the graph
// Digraph.AddEdge builds from the same calls.
func NewCSR(n int, from, to []int32) CSR {
	off := make([]int32, n+1)
	for _, f := range from {
		off[f+1]++
	}
	for v := 0; v < n; v++ {
		off[v+1] += off[v]
	}
	succ := make([]int32, len(from))
	next := make([]int32, n)
	copy(next, off[:n])
	for i, f := range from {
		succ[next[f]] = to[i]
		next[f]++
	}
	// Drop duplicates in place. next is reused as "last source that kept
	// this target", stored +1 so the zero value means none.
	clear(next)
	w := int32(0)
	for v := 0; v < n; v++ {
		start, end := off[v], off[v+1]
		off[v] = w
		for _, t := range succ[start:end] {
			if next[t] == int32(v)+1 {
				continue
			}
			next[t] = int32(v) + 1
			succ[w] = t
			w++
		}
	}
	off[n] = w
	return CSR{Off: off, Succ: succ[:w:w]}
}

// N returns the node count.
func (g CSR) N() int { return len(g.Off) - 1 }

// Succs returns v's successors in insertion order.
func (g CSR) Succs(v int32) []int32 { return g.Succ[g.Off[v]:g.Off[v+1]] }

// HasArc reports whether v -> w exists.
func (g CSR) HasArc(v, w int32) bool { return slices.Contains(g.Succs(v), w) }

// Components is a partition of a graph's nodes into strongly connected
// components.
type Components struct {
	// Members lists every node grouped by component: component c is
	// Members[Start[c]:Start[c+1]], in ascending node order.
	Members []int32
	Start   []int32
	// Of maps each node to its component.
	Of []int32
}

// Len returns the component count.
func (c Components) Len() int { return len(c.Start) - 1 }

// Nodes returns the members of component k in ascending order.
func (c Components) Nodes(k int32) []int32 {
	return c.Members[c.Start[k]:c.Start[k+1]:c.Start[k+1]]
}

// SCCs computes the strongly connected components with Tarjan's algorithm
// (iterative), rooting searches in node order and following successors in
// insertion order. Components come in Tarjan's completion order, which is
// a reverse topological order of the condensation.
func (g CSR) SCCs() Components {
	n := g.N()
	indexOf := make([]int32, n) // discovery index, 0 = unvisited
	lowlink := make([]int32, n)
	onStack := make([]bool, n)
	stack := make([]int32, 0, n)
	c := Components{Members: make([]int32, 0, n), Start: make([]int32, 1, n+1), Of: make([]int32, n)}
	type frame struct{ v, si int32 }
	var frames []frame
	next := int32(1)
	push := func(v int32) {
		indexOf[v], lowlink[v] = next, next
		next++
		stack = append(stack, v)
		onStack[v] = true
		frames = append(frames, frame{v: v, si: g.Off[v]})
	}
	for root := int32(0); root < int32(n); root++ {
		if indexOf[root] != 0 {
			continue
		}
		push(root)
		for len(frames) > 0 {
			fr := &frames[len(frames)-1]
			v := fr.v
			advanced := false
			for fr.si < g.Off[v+1] {
				w := g.Succ[fr.si]
				fr.si++
				if indexOf[w] == 0 {
					push(w)
					advanced = true
					break
				}
				if onStack[w] && indexOf[w] < lowlink[v] {
					lowlink[v] = indexOf[w]
				}
			}
			if advanced {
				continue
			}
			// v is done.
			frames = frames[:len(frames)-1]
			if len(frames) > 0 {
				if p := frames[len(frames)-1].v; lowlink[v] < lowlink[p] {
					lowlink[p] = lowlink[v]
				}
			}
			if lowlink[v] != indexOf[v] {
				continue
			}
			k := int32(c.Len())
			first := len(c.Members)
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				c.Members = append(c.Members, w)
				c.Of[w] = k
				if w == v {
					break
				}
			}
			slices.Sort(c.Members[first:])
			c.Start = append(c.Start, int32(len(c.Members)))
		}
	}
	return c
}

// Condense returns the DAG of c's components: an arc k -> l for every arc
// of g between them, each component's successors in the order a scan of
// g's nodes and their successors first meets them.
func (g CSR) Condense(c Components) CSR {
	var from, to []int32
	for v := int32(0); v < int32(g.N()); v++ {
		cf := c.Of[v]
		for _, w := range g.Succs(v) {
			if ct := c.Of[w]; ct != cf {
				from = append(from, cf)
				to = append(to, ct)
			}
		}
	}
	return NewCSR(c.Len(), from, to)
}

// Topo returns the nodes of an acyclic graph in Kahn's order: the queue
// is seeded with the sources in node order and drained first-in
// first-out, successors released in insertion order.
func (g CSR) Topo() []int32 {
	n := g.N()
	inDeg := make([]int32, n)
	for _, w := range g.Succ {
		inDeg[w]++
	}
	order := make([]int32, 0, n)
	for v := int32(0); v < int32(n); v++ {
		if inDeg[v] == 0 {
			order = append(order, v)
		}
	}
	for head := 0; head < len(order); head++ {
		for _, w := range g.Succs(order[head]) {
			if inDeg[w]--; inDeg[w] == 0 {
				order = append(order, w)
			}
		}
	}
	return order
}

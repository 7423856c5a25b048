package graph

import (
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

// The map-keyed Tarjan, condensation and Kahn's order Digraph ran before
// the dense CSR forms replaced them: the oracle TestCSRMatchesReference
// holds CSR to, order included.

// refSCCs is Digraph.SCCs as it was: Tarjan's algorithm on the map-keyed
// graph (iterative).
func refSCCs[N comparable](g *Digraph[N]) []*SCC[N] {
	n := len(g.nodes)
	indexOf := make([]int, n) // discovery index, 0 = unvisited
	lowlink := make([]int, n)
	onStack := make([]bool, n)
	var stack []int
	next := 1
	var comps []*SCC[N]

	type frame struct {
		v  int
		si int // successor cursor
	}
	for root := 0; root < n; root++ {
		if indexOf[root] != 0 {
			continue
		}
		var frames []frame
		push := func(v int) {
			indexOf[v] = next
			lowlink[v] = next
			next++
			stack = append(stack, v)
			onStack[v] = true
			frames = append(frames, frame{v: v})
		}
		push(root)
		for len(frames) > 0 {
			fr := &frames[len(frames)-1]
			v := fr.v
			succs := g.succs[g.nodes[v]]
			advanced := false
			for fr.si < len(succs) {
				w := g.index[succs[fr.si]]
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
				p := frames[len(frames)-1].v
				if lowlink[v] < lowlink[p] {
					lowlink[p] = lowlink[v]
				}
			}
			if lowlink[v] == indexOf[v] {
				comp := &SCC[N]{}
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					comp.Nodes = append(comp.Nodes, g.nodes[w])
					if w == v {
						break
					}
				}
				// Restore insertion order inside the component.
				sort.Slice(comp.Nodes, func(i, j int) bool {
					return g.index[comp.Nodes[i]] < g.index[comp.Nodes[j]]
				})
				comps = append(comps, comp)
			}
		}
	}
	// Mark internal edges.
	for _, c := range comps {
		if len(c.Nodes) > 1 {
			c.HasInternalEdge = true
			continue
		}
		v := c.Nodes[0]
		c.HasInternalEdge = g.HasEdge(v, v)
	}
	return comps
}

// refCondensation is the DAG of SCCs as Digraph.Condense built it.
type refCondensation[N comparable] struct {
	Comps  []*SCC[N]
	CompOf map[N]*SCC[N]
	Edges  map[*SCC[N]][]*SCC[N] // successor components
	Rev    map[*SCC[N]][]*SCC[N] // predecessor components
}

// refCondense is Digraph.Condense as it was.
func refCondense[N comparable](g *Digraph[N]) *refCondensation[N] {
	comps := refSCCs(g)
	c := &refCondensation[N]{
		Comps:  comps,
		CompOf: map[N]*SCC[N]{},
		Edges:  map[*SCC[N]][]*SCC[N]{},
		Rev:    map[*SCC[N]][]*SCC[N]{},
	}
	for _, comp := range comps {
		for _, n := range comp.Nodes {
			c.CompOf[n] = comp
		}
	}
	seen := map[[2]int]bool{}
	compIdx := map[*SCC[N]]int{}
	for i, comp := range comps {
		compIdx[comp] = i
	}
	for _, from := range g.nodes {
		cf := c.CompOf[from]
		for _, to := range g.succs[from] {
			ct := c.CompOf[to]
			if cf == ct {
				continue
			}
			key := [2]int{compIdx[cf], compIdx[ct]}
			if seen[key] {
				continue
			}
			seen[key] = true
			c.Edges[cf] = append(c.Edges[cf], ct)
			c.Rev[ct] = append(c.Rev[ct], cf)
		}
	}
	return c
}

// Topo is Condensation.Topo as it was: Kahn's order, sources first.
func (c *refCondensation[N]) Topo() []*SCC[N] {
	inDeg := map[*SCC[N]]int{}
	for _, comp := range c.Comps {
		inDeg[comp] = len(c.Rev[comp])
	}
	var queue []*SCC[N]
	for _, comp := range c.Comps {
		if inDeg[comp] == 0 {
			queue = append(queue, comp)
		}
	}
	var out []*SCC[N]
	for len(queue) > 0 {
		comp := queue[0]
		queue = queue[1:]
		out = append(out, comp)
		for _, s := range c.Edges[comp] {
			inDeg[s]--
			if inDeg[s] == 0 {
				queue = append(queue, s)
			}
		}
	}
	return out
}

// TestCSRMatchesReference: on random graphs with repeated arcs, CSR's
// components (Tarjan's order, members ascending, self-loops), its
// condensation (each component's successors in order) and Kahn's order
// over it equal the map-keyed reference's on the same arcs.
func TestCSRMatchesReference(t *testing.T) {
	prop := func(seed int64, nRaw, eRaw uint8) bool {
		n := int(nRaw%24) + 1
		from, to := randomArcs(n, int(eRaw%80), seed)
		d := New[int32]()
		for v := int32(0); v < int32(n); v++ {
			d.AddNode(v)
		}
		for i := range from {
			d.AddEdge(from[i], to[i])
		}
		ref := refCondense(d)
		g := NewCSR(n, from, to)
		comps := g.SCCs()
		if comps.Len() != len(ref.Comps) {
			return false
		}
		compIdx := map[*SCC[int32]]int32{}
		for k, rc := range ref.Comps {
			compIdx[rc] = int32(k)
			members := comps.Nodes(int32(k))
			self := len(members) > 1 || g.HasArc(members[0], members[0])
			if !slices.Equal(members, rc.Nodes) || self != rc.HasInternalEdge {
				return false
			}
		}
		dag := g.Condense(comps)
		for k, rc := range ref.Comps {
			var want []int32
			for _, s := range ref.Edges[rc] {
				want = append(want, compIdx[s])
			}
			if !slices.Equal(dag.Succs(int32(k)), want) {
				return false
			}
		}
		var want []int32
		for _, rc := range ref.Topo() {
			want = append(want, compIdx[rc])
		}
		return slices.Equal(dag.Topo(), want)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

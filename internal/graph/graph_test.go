package graph

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestSCCsSimple(t *testing.T) {
	g := New[int]()
	// 1 -> 2 -> 3 -> 1 (cycle), 3 -> 4, 4 -> 5 -> 4 (cycle)
	g.AddEdge(1, 2)
	g.AddEdge(2, 3)
	g.AddEdge(3, 1)
	g.AddEdge(3, 4)
	g.AddEdge(4, 5)
	g.AddEdge(5, 4)
	comps := g.SCCs()
	if len(comps) != 2 {
		t.Fatalf("SCCs = %d, want 2", len(comps))
	}
	for _, c := range comps {
		if !c.HasInternalEdge {
			t.Errorf("component %v should have internal edges", c.Nodes)
		}
	}
}

func TestSelfLoopIsInternalEdge(t *testing.T) {
	g := New[string]()
	g.AddEdge("a", "a")
	g.AddNode("b")
	comps := g.SCCs()
	if len(comps) != 2 {
		t.Fatalf("SCCs = %d, want 2", len(comps))
	}
	for _, c := range comps {
		switch c.Nodes[0] {
		case "a":
			if !c.HasInternalEdge {
				t.Error("self-loop not detected")
			}
		case "b":
			if c.HasInternalEdge {
				t.Error("isolated node has no internal edge")
			}
		}
	}
}

// randomGraph builds a deterministic pseudo-random digraph.
func randomGraph(n int, edges int, seed int64) *Digraph[int] {
	r := rand.New(rand.NewSource(seed))
	g := New[int]()
	for i := 0; i < n; i++ {
		g.AddNode(i)
	}
	for i := 0; i < edges; i++ {
		g.AddEdge(r.Intn(n), r.Intn(n))
	}
	return g
}

// TestSCCPartitionProperty: SCCs partition the nodes (quick-checked).
func TestSCCPartitionProperty(t *testing.T) {
	prop := func(seed int64, nRaw, eRaw uint8) bool {
		n := int(nRaw%20) + 1
		e := int(eRaw % 60)
		g := randomGraph(n, e, seed)
		seen := map[int]int{}
		for _, c := range g.SCCs() {
			for _, v := range c.Nodes {
				seen[v]++
			}
		}
		if len(seen) != n {
			return false
		}
		for _, count := range seen {
			if count != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// randomArcs draws arcs over n nodes, duplicates included.
func randomArcs(n, arcs int, seed int64) (from, to []int32) {
	r := rand.New(rand.NewSource(seed))
	for i := 0; i < arcs; i++ {
		from = append(from, int32(r.Intn(n)))
		to = append(to, int32(r.Intn(n)))
	}
	return from, to
}

// TestCondensationAcyclicProperty: the condensation is a DAG whose Topo
// order covers every component exactly once, and renumbering the DAG by
// that order leaves it unchanged.
func TestCondensationAcyclicProperty(t *testing.T) {
	prop := func(seed int64, nRaw, eRaw uint8) bool {
		n := int(nRaw%20) + 1
		from, to := randomArcs(n, int(eRaw%60), seed)
		g := NewCSR(n, from, to)
		comps := g.SCCs()
		dag := g.Condense(comps)
		topo := dag.Topo()
		if len(topo) != comps.Len() {
			return false // cycle in condensation: topo cannot cover it
		}
		pos := make([]int, comps.Len())
		for i, k := range topo {
			pos[k] = i
		}
		var af, at []int32
		for k := int32(0); k < int32(comps.Len()); k++ {
			for _, l := range dag.Succs(k) {
				if pos[l] <= pos[k] {
					return false
				}
				af, at = append(af, int32(pos[k])), append(at, int32(pos[l]))
			}
		}
		// Kahn's order is a fixed point: renumbered by it, the DAG's own
		// Kahn's order is 0, 1, 2, ... (sccdag.TopoOrder relies on this).
		for i, k := range NewCSR(comps.Len(), af, at).Topo() {
			if int(k) != i {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestCSRKeepsFirstInsertionOrder: NewCSR drops duplicate arcs and keeps
// each node's successors in the order Digraph.AddEdge keeps them, so the
// two forms of one graph are searched alike.
func TestCSRKeepsFirstInsertionOrder(t *testing.T) {
	prop := func(seed int64, nRaw, eRaw uint8) bool {
		n := int(nRaw%20) + 1
		from, to := randomArcs(n, int(eRaw), seed)
		g := NewCSR(n, from, to)
		d := New[int32]()
		for v := int32(0); v < int32(n); v++ {
			d.AddNode(v)
		}
		for i := range from {
			d.AddEdge(from[i], to[i])
		}
		if len(g.Succ) != d.NumEdges() {
			return false
		}
		for v := int32(0); v < int32(n); v++ {
			if !slices.Equal(g.Succs(v), d.Succs(v)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestIslandsPartitionProperty: islands partition nodes, and any edge's
// endpoints share an island.
func TestIslandsPartitionProperty(t *testing.T) {
	prop := func(seed int64, nRaw, eRaw uint8) bool {
		n := int(nRaw%20) + 1
		e := int(eRaw % 40)
		g := randomGraph(n, e, seed)
		islandOf := map[int]int{}
		for i, isl := range g.Islands() {
			for _, v := range isl {
				if _, dup := islandOf[v]; dup {
					return false
				}
				islandOf[v] = i
			}
		}
		if len(islandOf) != n {
			return false
		}
		for _, v := range g.Nodes() {
			for _, w := range g.Succs(v) {
				if islandOf[v] != islandOf[w] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestDedupEdges(t *testing.T) {
	g := New[int]()
	g.AddEdge(1, 2)
	g.AddEdge(1, 2)
	if g.NumEdges() != 1 {
		t.Errorf("duplicate edge stored: %d", g.NumEdges())
	}
	if !g.HasEdge(1, 2) || g.HasEdge(2, 1) {
		t.Error("HasEdge wrong")
	}
}

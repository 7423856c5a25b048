// Package pdg implements NOELLE's Program Dependence Graph abstraction
// (paper Section 2.2, "PDG"): all control and data dependences between the
// instructions of a program. Data dependences are classified
// (RAW/WAW/WAR), flagged register vs memory, may vs must ("apparent" vs
// "actual"), and — once refined against a loop — loop-carried or not.
// Sub-graphs for loops and functions expose internal and external nodes so
// clients can read off live-ins and live-outs. A graph is immutable once
// built: every constructor (the cold build, the embedded-metadata decoder,
// the abscache record decoder, and Restrict for a loop) lays it out in
// one bulk pass over dense node positions.
package pdg

import (
	"fmt"
	"sort"
	"sync"

	"noelle/internal/ir"
)

// DepClass classifies a data dependence.
type DepClass int

// Dependence classes.
const (
	RAW DepClass = iota // read after write (true/flow)
	WAW                 // write after write (output)
	WAR                 // write after read (anti)
)

// String renders the class.
func (c DepClass) String() string {
	switch c {
	case RAW:
		return "RAW"
	case WAW:
		return "WAW"
	case WAR:
		return "WAR"
	default:
		return "?"
	}
}

// Edge is a directed dependence: To depends on From.
type Edge struct {
	From, To *ir.Instr
	Class    DepClass
	// Control is true for control dependences; data fields are meaningful
	// only when Control is false.
	Control bool
	// Memory is true for memory dependences, false for register (SSA)
	// dependences.
	Memory bool
	// Must is true when the dependence provably occurs on every execution
	// that reaches both endpoints (the paper's "actual" vs "apparent").
	Must bool
	// LoopCarried marks dependences that cross loop iterations. It is set
	// by loop-dependence refinement and only meaningful for edges between
	// instructions of that loop.
	LoopCarried bool
}

func (e *Edge) String() string {
	kind := "reg"
	if e.Control {
		kind = "ctrl"
	} else if e.Memory {
		kind = "mem-" + e.Class.String()
	}
	lc := ""
	if e.LoopCarried {
		lc = " carried"
	}
	return fmt.Sprintf("%s -> %s [%s%s]", e.From.Ident(), e.To.Ident(), kind, lc)
}

// Graph is a dependence graph over instructions. It distinguishes internal
// nodes (the code region of interest) from external ones (producers of
// live-ins and consumers of live-outs), as the paper's templated
// dependence-graph class does.
//
// A Graph is immutable once built. NewGraph and Restrict number its nodes
// once — internal nodes first, then external ones in order of first
// appearance — and lay its edges out in one pass: one backing array in
// insertion order, plus compressed sparse rows of each node's out- and
// in-edges, each in insertion order.
type Graph struct {
	nodes    []*ir.Instr
	internal int // nodes[:internal] are the internal nodes
	edges    []Edge
	// Node v's out-edges are out[outOff[v]:outOff[v+1]], with outTo the
	// position of each one's To; its in-edges are in[inOff[v]:inOff[v+1]].
	outOff, inOff []int32
	out, in       []*Edge
	outTo         []int32

	// index maps an instruction to its position in nodes. It is built on
	// the first query by instruction unless the constructor had it.
	indexOnce sync.Once
	index     map[*ir.Instr]int32
}

// NewGraph builds a graph over the internal nodes and the edges, both
// given in insertion order; it takes ownership of the two slices. from
// and to, when non-nil, give each edge's endpoint positions in internal (a
// decoder already has them). When they are nil the endpoints are looked
// up, and one outside internal becomes an external node.
func NewGraph(internal []*ir.Instr, edges []Edge, from, to []int32) *Graph {
	g := &Graph{nodes: internal[:len(internal):len(internal)], internal: len(internal), edges: edges}
	if from == nil {
		index := make(map[*ir.Instr]int32, len(internal))
		for i, in := range internal {
			index[in] = int32(i)
		}
		number := func(in *ir.Instr) int32 {
			i, ok := index[in]
			if !ok {
				i = int32(len(g.nodes))
				index[in] = i
				g.nodes = append(g.nodes, in)
			}
			return i
		}
		from, to = make([]int32, len(edges)), make([]int32, len(edges))
		for k := range edges {
			from[k] = number(edges[k].From)
			to[k] = number(edges[k].To)
		}
		g.index = index
	}
	g.layout(from, to)
	return g
}

// layout builds the out- and in-edge rows from each edge's endpoint
// positions: a stable counting sort, so every row keeps insertion order.
func (g *Graph) layout(from, to []int32) {
	n, m := len(g.nodes), len(g.edges)
	g.outOff, g.inOff = make([]int32, n+1), make([]int32, n+1)
	for k := range from {
		g.outOff[from[k]+1]++
		g.inOff[to[k]+1]++
	}
	for v := 0; v < n; v++ {
		g.outOff[v+1] += g.outOff[v]
		g.inOff[v+1] += g.inOff[v]
	}
	g.out, g.in, g.outTo = make([]*Edge, m), make([]*Edge, m), make([]int32, m)
	next := make([]int32, 2*n)
	outNext, inNext := next[:n], next[n:]
	copy(outNext, g.outOff[:n])
	copy(inNext, g.inOff[:n])
	for k := range g.edges {
		e, f, t := &g.edges[k], from[k], to[k]
		g.out[outNext[f]], g.outTo[outNext[f]] = e, t
		outNext[f]++
		g.in[inNext[t]] = e
		inNext[t]++
	}
}

// Restrict derives the dependence graph of a region of g in one pass:
// region (instructions of g, in the order given) becomes the internal
// nodes, and every edge of g with an endpoint in the region is copied, in
// g's Edges order. A copy with both endpoints in the region is first
// passed to refine, which may edit it, or return false to leave it out.
// Endpoints outside the region become external nodes in order of first
// appearance, From before To.
func (g *Graph) Restrict(region []*ir.Instr, refine func(*Edge) bool) *Graph {
	index := g.indexOf()
	n := int32(len(region))
	sub := &Graph{nodes: region[:n:n], internal: int(n)}
	// local is each node of g's position in sub, plus one (0: not a node
	// of sub yet).
	local := make([]int32, len(g.nodes))
	for i, in := range region {
		if v, ok := index[in]; ok {
			local[v] = int32(i) + 1
		}
	}
	number := func(v int32) int32 {
		if local[v] == 0 {
			sub.nodes = append(sub.nodes, g.nodes[v])
			local[v] = int32(len(sub.nodes))
		}
		return local[v] - 1
	}
	inRegion := func(v int32) bool { return local[v] != 0 && local[v] <= n }
	touching := 0
	for v := int32(0); v < int32(len(g.nodes)); v++ {
		for k := g.outOff[v]; k < g.outOff[v+1]; k++ {
			if inRegion(v) || inRegion(g.outTo[k]) {
				touching++
			}
		}
	}
	sub.edges = make([]Edge, 0, touching)
	from, to := make([]int32, 0, touching), make([]int32, 0, touching)
	for v := int32(0); v < int32(len(g.nodes)); v++ {
		fromIn := inRegion(v)
		for k := g.outOff[v]; k < g.outOff[v+1]; k++ {
			t := g.outTo[k]
			toIn := inRegion(t)
			if !fromIn && !toIn {
				continue
			}
			sub.edges = append(sub.edges, *g.out[k])
			if fromIn && toIn && !refine(&sub.edges[len(sub.edges)-1]) {
				sub.edges = sub.edges[:len(sub.edges)-1]
				continue
			}
			from = append(from, number(v))
			to = append(to, number(t))
		}
	}
	sub.layout(from, to)
	return sub
}

// indexOf returns the instruction-to-position map, building it on first
// use.
func (g *Graph) indexOf() map[*ir.Instr]int32 {
	g.indexOnce.Do(func() {
		if g.index == nil {
			g.index = make(map[*ir.Instr]int32, len(g.nodes))
			for i, in := range g.nodes {
				g.index[in] = int32(i)
			}
		}
	})
	return g.index
}

// pos returns in's position in Nodes, or -1.
func (g *Graph) pos(in *ir.Instr) int32 {
	if v, ok := g.indexOf()[in]; ok {
		return v
	}
	return -1
}

// Nodes returns all nodes (internal then external registration order).
func (g *Graph) Nodes() []*ir.Instr { return g.nodes }

// Internal reports whether in is an internal node.
func (g *Graph) Internal(in *ir.Instr) bool {
	v := g.pos(in)
	return v >= 0 && int(v) < g.internal
}

// External reports whether in is an external node.
func (g *Graph) External(in *ir.Instr) bool { return int(g.pos(in)) >= g.internal }

// InternalNodes returns the internal nodes in registration order.
func (g *Graph) InternalNodes() []*ir.Instr { return g.nodes[:g.internal:g.internal] }

// ExternalNodes returns the external nodes in registration order.
func (g *Graph) ExternalNodes() []*ir.Instr { return g.nodes[g.internal:] }

// OutEdges returns the dependences out of in (others depending on it).
func (g *Graph) OutEdges(in *ir.Instr) []*Edge {
	v := g.pos(in)
	if v < 0 {
		return nil
	}
	return g.out[g.outOff[v]:g.outOff[v+1]:g.outOff[v+1]]
}

// InEdges returns the dependences into in (what it depends on).
func (g *Graph) InEdges(in *ir.Instr) []*Edge {
	v := g.pos(in)
	if v < 0 {
		return nil
	}
	return g.in[g.inOff[v]:g.inOff[v+1]:g.inOff[v+1]]
}

// NumEdges returns the edge count.
func (g *Graph) NumEdges() int { return len(g.edges) }

// NumNodes returns the node count.
func (g *Graph) NumNodes() int { return len(g.nodes) }

// Edges calls fn for every edge (from-node registration order).
func (g *Graph) Edges(fn func(*Edge) bool) {
	for _, e := range g.out {
		if !fn(e) {
			return
		}
	}
}

// IndexedEdges calls fn for every edge in Edges order with the positions
// of its endpoints in Nodes (so an endpoint is internal exactly when its
// position is below len(InternalNodes())).
func (g *Graph) IndexedEdges(fn func(e *Edge, from, to int32) bool) {
	for v := int32(0); v < int32(len(g.nodes)); v++ {
		for k := g.outOff[v]; k < g.outOff[v+1]; k++ {
			if !fn(g.out[k], v, g.outTo[k]) {
				return
			}
		}
	}
}

// EdgesBetween returns the edges from a to b.
func (g *Graph) EdgesBetween(a, b *ir.Instr) []*Edge {
	var out []*Edge
	for _, e := range g.OutEdges(a) {
		if e.To == b {
			out = append(out, e)
		}
	}
	return out
}

// SortedEdges returns every edge ordered by (From.ID, To.ID, flags) for
// deterministic output; callers must have assigned instruction IDs.
func (g *Graph) SortedEdges() []*Edge {
	var all []*Edge
	g.Edges(func(e *Edge) bool {
		all = append(all, e)
		return true
	})
	sort.SliceStable(all, func(i, j int) bool {
		a, b := all[i], all[j]
		if a.From.ID != b.From.ID {
			return a.From.ID < b.From.ID
		}
		if a.To.ID != b.To.ID {
			return a.To.ID < b.To.ID
		}
		return edgeRank(a) < edgeRank(b)
	})
	return all
}

func edgeRank(e *Edge) int {
	r := int(e.Class)
	if e.Control {
		r += 10
	}
	if e.Memory {
		r += 100
	}
	if e.Must {
		r += 1000
	}
	if e.LoopCarried {
		r += 10000
	}
	return r
}

package loops_test

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"noelle/internal/core"
	"noelle/internal/fuzz"
	"noelle/internal/graph"
	"noelle/internal/ir"
	"noelle/internal/irtext"
	"noelle/internal/loops"
	"noelle/internal/pdg"
	"noelle/internal/profiler"
	"noelle/internal/sccdag"
	"noelle/internal/tool"
	"noelle/internal/tools/auto"
)

// This file keeps the loop bundle's builders as they were before the
// bundle moved to dense indices: the map-keyed dependence graph a loop's
// DG was copied into edge by edge and NewLoopDG over it; the register-only
// graph.Digraph NewIVAnalysis and NewReductionAnalysis each built;
// sccdag.Build on a graph.Digraph with the map-keyed condensation and
// Kahn's order; and Algorithm 2 with a fresh stack map per instruction.
// They are slow and obviously right, which makes them the oracle
// TestLoopBundleMatchesReference holds NewLoop to, query by query and in
// order.

// refGraph is pdg.Graph as it was: nodes registered one at a time, edges
// appended to per-node maps.
type refGraph struct {
	nodes    []*ir.Instr
	internal map[*ir.Instr]bool
	external map[*ir.Instr]bool
	out      map[*ir.Instr][]*pdg.Edge
	in       map[*ir.Instr][]*pdg.Edge
}

func newRefGraph() *refGraph {
	return &refGraph{
		internal: map[*ir.Instr]bool{},
		external: map[*ir.Instr]bool{},
		out:      map[*ir.Instr][]*pdg.Edge{},
		in:       map[*ir.Instr][]*pdg.Edge{},
	}
}

func (g *refGraph) AddInternal(in *ir.Instr) {
	if g.internal[in] {
		return
	}
	if g.external[in] {
		delete(g.external, in)
	} else {
		g.nodes = append(g.nodes, in)
	}
	g.internal[in] = true
}

func (g *refGraph) AddExternal(in *ir.Instr) {
	if g.internal[in] || g.external[in] {
		return
	}
	g.external[in] = true
	g.nodes = append(g.nodes, in)
}

func (g *refGraph) AddEdge(e *pdg.Edge) {
	g.AddExternal(e.From)
	g.AddExternal(e.To)
	g.out[e.From] = append(g.out[e.From], e)
	g.in[e.To] = append(g.in[e.To], e)
}

func (g *refGraph) Internal(in *ir.Instr) bool { return g.internal[in] }

func (g *refGraph) InternalNodes() []*ir.Instr {
	var out []*ir.Instr
	for _, n := range g.nodes {
		if g.internal[n] {
			out = append(out, n)
		}
	}
	return out
}

func (g *refGraph) Edges(fn func(*pdg.Edge) bool) {
	for _, n := range g.nodes {
		for _, e := range g.out[n] {
			if !fn(e) {
				return
			}
		}
	}
}

// refLoopDG is NewLoopDG as it was.
func refLoopDG(ls *loops.LS, fpdg *pdg.Graph, ivs *loops.IVAnalysis) *refGraph {
	g := newRefGraph()
	ls.Instrs(func(in *ir.Instr) bool {
		g.AddInternal(in)
		return true
	})

	fpdg.Edges(func(e *pdg.Edge) bool {
		fromIn := ls.ContainsInstr(e.From)
		toIn := ls.ContainsInstr(e.To)
		if !fromIn && !toIn {
			return true
		}
		ne := *e // copy; refinement must not mutate the function PDG
		if fromIn && toIn {
			loops.RefineCarried(ls, ivs, &ne)
			if ne.Memory && ne.Class == loops.Dropped {
				return true // affine analysis disproved the dependence
			}
		}
		g.AddEdge(&ne)
		return true
	})
	return g
}

// refCondensation is graph.Digraph's condensation DAG as it was, with
// its Kahn's order. (The components come from Digraph.SCCs, which
// internal/graph holds to its own map-keyed Tarjan.)
type refCondensation struct {
	Comps  []*graph.SCC[*ir.Instr]
	CompOf map[*ir.Instr]*graph.SCC[*ir.Instr]
	Edges  map[*graph.SCC[*ir.Instr]][]*graph.SCC[*ir.Instr] // successor components
	Rev    map[*graph.SCC[*ir.Instr]][]*graph.SCC[*ir.Instr] // predecessor components
}

func refCondense(g *graph.Digraph[*ir.Instr]) *refCondensation {
	comps := g.SCCs()
	c := &refCondensation{
		Comps:  comps,
		CompOf: map[*ir.Instr]*graph.SCC[*ir.Instr]{},
		Edges:  map[*graph.SCC[*ir.Instr]][]*graph.SCC[*ir.Instr]{},
		Rev:    map[*graph.SCC[*ir.Instr]][]*graph.SCC[*ir.Instr]{},
	}
	for _, comp := range comps {
		for _, n := range comp.Nodes {
			c.CompOf[n] = comp
		}
	}
	seen := map[[2]int]bool{}
	compIdx := map[*graph.SCC[*ir.Instr]]int{}
	for i, comp := range comps {
		compIdx[comp] = i
	}
	for _, from := range g.Nodes() {
		cf := c.CompOf[from]
		for _, to := range g.Succs(from) {
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

func (c *refCondensation) Topo() []*graph.SCC[*ir.Instr] {
	inDeg := map[*graph.SCC[*ir.Instr]]int{}
	for _, comp := range c.Comps {
		inDeg[comp] = len(c.Rev[comp])
	}
	var queue []*graph.SCC[*ir.Instr]
	for _, comp := range c.Comps {
		if inDeg[comp] == 0 {
			queue = append(queue, comp)
		}
	}
	var out []*graph.SCC[*ir.Instr]
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

// refRegisterSCCs is the register-only dependence graph NewIVAnalysis and
// NewReductionAnalysis each built, reduced to the cyclic SCCs both of them
// classified.
func refRegisterSCCs(ls *loops.LS) [][]*ir.Instr {
	dg := graph.New[*ir.Instr]()
	ls.Instrs(func(in *ir.Instr) bool {
		dg.AddNode(in)
		return true
	})
	ls.Instrs(func(in *ir.Instr) bool {
		for _, op := range in.Ops {
			if def, ok := op.(*ir.Instr); ok && ls.ContainsInstr(def) {
				dg.AddEdge(def, in)
			}
		}
		return true
	})
	var out [][]*ir.Instr
	for _, scc := range dg.SCCs() {
		if scc.HasInternalEdge {
			out = append(out, scc.Nodes)
		}
	}
	return out
}

// refDAG is sccdag.SCCDAG as sccdag.Build filled it.
type refDAG struct {
	Nodes  []*sccdag.Node
	NodeOf map[*ir.Instr]*sccdag.Node
	Succs  map[*sccdag.Node][]*sccdag.Node
}

// refBuild is sccdag.Build as it was.
func refBuild(ldg *refGraph, cls sccdag.Classifiers) *refDAG {
	dg := graph.New[*ir.Instr]()
	for _, n := range ldg.InternalNodes() {
		dg.AddNode(n)
	}
	ldg.Edges(func(e *pdg.Edge) bool {
		if ldg.Internal(e.From) && ldg.Internal(e.To) {
			dg.AddEdge(e.From, e.To)
			if e.LoopCarried {
				// A carried dependence also constrains the earlier
				// instruction's next instance: close the cycle so the SCC
				// reflects cross-iteration coupling.
				dg.AddEdge(e.To, e.From)
			}
		}
		return true
	})

	cond := refCondense(dg)
	s := &refDAG{
		NodeOf: map[*ir.Instr]*sccdag.Node{},
		Succs:  map[*sccdag.Node][]*sccdag.Node{},
	}
	byComp := map[*graph.SCC[*ir.Instr]]*sccdag.Node{}
	for _, comp := range cond.Topo() {
		n := &sccdag.Node{Instrs: comp.Nodes}
		byComp[comp] = n
		s.Nodes = append(s.Nodes, n)
		for _, in := range comp.Nodes {
			s.NodeOf[in] = n
		}
	}
	for comp, node := range byComp {
		for _, sc := range cond.Edges[comp] {
			s.Succs[node] = append(s.Succs[node], byComp[sc])
		}
	}

	// Collect carried edges per node and classify.
	ldg.Edges(func(e *pdg.Edge) bool {
		if !e.LoopCarried {
			return true
		}
		from, to := s.NodeOf[e.From], s.NodeOf[e.To]
		if from == nil || from != to {
			return true
		}
		from.Carried = append(from.Carried, e)
		if e.Memory {
			from.HasMemoryCarried = true
		}
		return true
	})
	for _, n := range s.Nodes {
		refClassify(n, cls)
	}
	return s
}

func refClassify(n *sccdag.Node, cls sccdag.Classifiers) {
	if len(n.Carried) == 0 {
		n.Kind = sccdag.Independent
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
			n.Kind = sccdag.Sequential
			n.IsIV = true
			return
		}
	}
	if !n.HasMemoryCarried && cls.IsReductionPhi != nil {
		// Register-only carried cycle anchored at a reduction phi.
		for _, in := range n.Instrs {
			if in.Opcode == ir.OpPhi && cls.IsReductionPhi(in) {
				n.Kind = sccdag.Reducible
				return
			}
		}
	}
	n.Kind = sccdag.Sequential
}

func (s *refDAG) TopoOrder() []*sccdag.Node {
	inDeg := map[*sccdag.Node]int{}
	for _, n := range s.Nodes {
		inDeg[n] = 0
	}
	for _, n := range s.Nodes {
		for _, m := range s.Succs[n] {
			inDeg[m]++
		}
	}
	var q, out []*sccdag.Node
	for _, n := range s.Nodes {
		if inDeg[n] == 0 {
			q = append(q, n)
		}
	}
	for len(q) > 0 {
		n := q[0]
		q = q[1:]
		out = append(out, n)
		for _, m := range s.Succs[n] {
			inDeg[m]--
			if inDeg[m] == 0 {
				q = append(q, m)
			}
		}
	}
	return out
}

// refInvariants is the INV abstraction as it was: Algorithm 2 with a map
// memo and a fresh stack map per root instruction.
type refInvariants struct {
	ls         *loops.LS
	pdg        *pdg.Graph
	impureCall func(*ir.Instr) bool
	inv        map[*ir.Instr]bool
}

func newRefInvariants(ls *loops.LS, g *pdg.Graph, impureCall func(*ir.Instr) bool) *refInvariants {
	iv := &refInvariants{ls: ls, pdg: g, impureCall: impureCall, inv: map[*ir.Instr]bool{}}
	ls.Instrs(func(in *ir.Instr) bool {
		iv.isInvariant(in, map[*ir.Instr]bool{})
		return true
	})
	return iv
}

func (iv *refInvariants) List() []*ir.Instr {
	var out []*ir.Instr
	iv.ls.Instrs(func(in *ir.Instr) bool {
		if iv.inv[in] {
			out = append(out, in)
		}
		return true
	})
	return out
}

func (iv *refInvariants) isInvariant(in *ir.Instr, s map[*ir.Instr]bool) bool {
	if done, ok := iv.inv[in]; ok {
		return done
	}
	if s[in] {
		return false // dependence cycle => varies across iterations
	}
	if !refEligibleInvariant(in) {
		iv.inv[in] = false
		return false
	}
	if in.Opcode == ir.OpCall && (iv.impureCall == nil || iv.impureCall(in)) {
		iv.inv[in] = false
		return false
	}
	s[in] = true
	defer delete(s, in)

	for _, e := range iv.pdg.InEdges(in) {
		if e.Control {
			continue
		}
		j := e.From
		if !iv.ls.ContainsInstr(j) {
			continue // defined outside the loop
		}
		if e.Memory && refMayWriteMemory(j) {
			iv.inv[in] = false
			return false
		}
		if !iv.isInvariant(j, s) {
			iv.inv[in] = false
			return false
		}
	}
	for _, e := range iv.pdg.OutEdges(in) {
		if !e.Memory {
			continue
		}
		if iv.ls.ContainsInstr(e.To) && refMayWriteMemory(e.To) {
			iv.inv[in] = false
			return false
		}
	}
	iv.inv[in] = true
	return true
}

func refMayWriteMemory(in *ir.Instr) bool {
	return in.Opcode == ir.OpStore || in.Opcode == ir.OpCall
}

func refEligibleInvariant(in *ir.Instr) bool {
	switch in.Opcode {
	case ir.OpPhi, ir.OpStore, ir.OpAlloca, ir.OpBr, ir.OpCondBr, ir.OpRet:
		return false
	}
	return true
}

// refLiveIns is LiveIns as it was, walking the loop's blocks.
func refLiveIns(ls *loops.LS) []ir.Value {
	seen := map[ir.Value]bool{}
	var out []ir.Value
	add := func(v ir.Value) {
		switch v.(type) {
		case *ir.Const, *ir.Global, *ir.Function:
			return // constants are rematerialized, not communicated
		}
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	ls.Instrs(func(in *ir.Instr) bool {
		for _, op := range in.Ops {
			if ls.DefinedOutside(op) {
				add(op)
			}
		}
		return true
	})
	return out
}

// bundleView is every query the comparison reads, from either side.
type bundleView struct {
	regSCCs    [][]*ir.Instr
	ivs        *loops.IVAnalysis
	rd         *loops.ReductionAnalysis
	invariants []*ir.Instr
	dgNodes    []*ir.Instr
	dgEdges    []*pdg.Edge
	dag        []*sccdag.Node
	succs      func(*sccdag.Node) []*sccdag.Node
	topo       []*sccdag.Node
	carried    []*pdg.Edge // CarriedDataDeps
	doall      bool
	liveIn     []ir.Value
}

func viewOf(ls *loops.LS, l *loops.Loop) bundleView {
	v := bundleView{
		regSCCs:    loops.RegisterSCCs(ls),
		ivs:        l.IVs,
		rd:         l.Reductions,
		invariants: l.Invariants.List(),
		dgNodes:    l.DG.Nodes(),
		dag:        l.SCCDAG.Nodes,
		succs:      func(n *sccdag.Node) []*sccdag.Node { return l.SCCDAG.Succs[n] },
		topo:       l.SCCDAG.TopoOrder(),
		carried:    l.CarriedDataDeps(),
		doall:      l.IsDOALL(),
		liveIn:     l.LiveIn,
	}
	l.DG.Edges(func(e *pdg.Edge) bool {
		v.dgEdges = append(v.dgEdges, e)
		return true
	})
	return v
}

// referenceView assembles the bundle from the reference builders. The IV
// and RD classifications are NewLoop's own, fed the reference register
// SCCs; the aSCCDAG's IV classifier is the new bundle's clonable set,
// which follows from IVs and invariants the comparison checks first.
func referenceView(ls *loops.LS, fpdg *pdg.Graph, impure func(*ir.Instr) bool, l *loops.Loop) bundleView {
	sccs := refRegisterSCCs(ls)
	ivs := loops.IVsFrom(ls, sccs, l.Invariants)
	rd := loops.ReductionsFrom(ls, sccs, ivs)
	ldg := refLoopDG(ls, fpdg, ivs)
	dag := refBuild(ldg, sccdag.Classifiers{
		IsReductionPhi: func(phi *ir.Instr) bool { return rd.ForPhi(phi) != nil },
		IsIVInstr:      l.Clonable,
	})
	v := bundleView{
		regSCCs:    sccs,
		ivs:        ivs,
		rd:         rd,
		invariants: newRefInvariants(ls, fpdg, impure).List(),
		dgNodes:    ldg.nodes,
		dag:        dag.Nodes,
		succs:      func(n *sccdag.Node) []*sccdag.Node { return dag.Succs[n] },
		topo:       dag.TopoOrder(),
		liveIn:     refLiveIns(ls),
	}
	ldg.Edges(func(e *pdg.Edge) bool {
		v.dgEdges = append(v.dgEdges, e)
		// CarriedDataDeps as Loop had it.
		if e.LoopCarried && !e.Control {
			n := dag.NodeOf[e.From]
			if n == nil || !(n.IsIV || n.Kind == sccdag.Reducible) || n != dag.NodeOf[e.To] {
				v.carried = append(v.carried, e)
			}
		}
		return true
	})
	v.doall = ivs.GoverningIV() != nil
	for _, n := range dag.Nodes {
		if n.Kind == sccdag.Sequential && !n.IsIV {
			v.doall = false
		}
	}
	return v
}

// render prints every query of v, one line each, naming instructions by
// their position in the function.
func (v bundleView) render(pos map[*ir.Instr]int) []string {
	var out []string
	line := func(format string, args ...any) { out = append(out, fmt.Sprintf(format, args...)) }
	instrs := func(ins []*ir.Instr) string {
		var b strings.Builder
		for _, in := range ins {
			fmt.Fprintf(&b, " %d", pos[in])
		}
		return b.String()
	}
	value := func(x ir.Value) string {
		if x == nil {
			return "nil"
		}
		if in, ok := x.(*ir.Instr); ok {
			return fmt.Sprint(pos[in])
		}
		return x.Ident()
	}
	edge := func(e *pdg.Edge) string {
		return fmt.Sprintf("%d>%d:%s", pos[e.From], pos[e.To], pdg.EncodeEdgeFlags(e))
	}
	for _, scc := range v.regSCCs {
		line("register scc%s", instrs(scc))
	}
	for _, iv := range v.ivs.IVs {
		line("iv phi=%s scc%s | start=%s step=%s governing=%v cmp=%s bound=%s derived%s",
			value(iv.Phi), instrs(iv.SCC), value(iv.Start), value(iv.Step), iv.Governing,
			value(iv.ExitCmp), value(iv.ExitBound), instrs(iv.Derived))
	}
	if g := v.ivs.GoverningIV(); g != nil {
		line("governing %s", value(g.Phi))
	}
	for _, r := range v.rd.Reductions {
		line("reduction phi=%s op=%s scc%s | start=%s identity=%s", value(r.Phi), r.Op, instrs(r.SCC), value(r.Start), value(r.Identity))
	}
	line("invariants%s", instrs(v.invariants))
	line("dg nodes%s", instrs(v.dgNodes))
	for _, e := range v.dgEdges {
		line("dg edge %s", edge(e))
	}
	index := map[*sccdag.Node]int{}
	for i, n := range v.dag {
		index[n] = i
	}
	nodes := func(ns []*sccdag.Node) string {
		var b strings.Builder
		for _, n := range ns {
			fmt.Fprintf(&b, " %d", index[n])
		}
		return b.String()
	}
	for i, n := range v.dag {
		line("scc %d %s iv=%v mem=%v:%s | succs%s", i, n.Kind, n.IsIV, n.HasMemoryCarried, instrs(n.Instrs), nodes(v.succs(n)))
		for _, e := range n.Carried {
			line("scc %d carried %s", i, edge(e))
		}
	}
	line("topo%s", nodes(v.topo))
	for _, e := range v.carried {
		line("carried data dep %s", edge(e))
	}
	line("doall %v", v.doall)
	var live []string
	for _, x := range v.liveIn {
		live = append(live, value(x))
	}
	line("live-in %s", strings.Join(live, " "))
	return out
}

// TestLoopBundleMatchesReference: every query of the bundle core.Loop
// builds — the register SCCs; each IV's cycle, start, step, governing exit
// and derived instructions; the reductions; the invariants; the loop DG's
// nodes and edges; the aSCCDAG's nodes, kinds, IV flags, carried lists,
// successors and topological order; CarriedDataDeps; IsDOALL; the
// live-ins — line for line against the reference builders, on every loop
// of fuzz.Subjects(150), and on every loop again after `auto -exec-plans`
// lowered the module.
func TestLoopBundleMatchesReference(t *testing.T) {
	var bundles [2]int // before and after lowering
	lowered := 0
	check := func(name string, m *ir.Module, after int) {
		n := core.New(m, core.DefaultOptions())
		pt := n.PointsTo()
		impure := func(call *ir.Instr) bool { return !pt.CallIsPure(call) }
		for _, f := range m.Functions {
			pos := map[*ir.Instr]int{}
			f.Instrs(func(in *ir.Instr) bool {
				pos[in] = len(pos)
				return true
			})
			for _, ls := range n.LoopStructures(f) {
				bundles[after]++
				l := n.Loop(ls)
				got := viewOf(ls, l).render(pos)
				want := referenceView(ls, n.FunctionPDG(f), impure, l).render(pos)
				if d := firstDifference(got, want); d != "" {
					t.Errorf("%s @%s/%s: %s", name, f.Nam, ls.Header.Nam, d)
				}
			}
		}
	}
	// A phi feeding itself is a register self-loop: a one-instruction
	// cycle that no generated program has.
	selfLoop, err := irtext.Parse(selfLoopSrc)
	if err != nil {
		t.Fatal(err)
	}
	check("self-loop", selfLoop, 0)
	err = fuzz.Subjects(150, func(name string, m *ir.Module) {
		check(name, m, 0)
		prof, err := profiler.Collect(m)
		if err != nil {
			t.Fatalf("%s: profile: %v", name, err)
		}
		prof.Embed()
		opts := core.DefaultOptions()
		opts.Cores, opts.MinHotness = 2, 0.05
		res, err := auto.Run(context.Background(), core.New(m, opts), tool.Options{ExecutePlans: true})
		if err != nil {
			t.Fatalf("%s: auto: %v", name, err)
		}
		lowered += res.Lowered()
		check(name+" after auto", m, 1)
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%d loop bundles checked, %d after %d loops were lowered", bundles[0], bundles[1], lowered)
	if bundles[0] < 2198 || bundles[1] < 2198 || lowered < 500 {
		t.Errorf("only %d+%d loop bundles and %d lowered loops", bundles[0], bundles[1], lowered)
	}
}

const selfLoopSrc = `module "m"
func @main() i64 {
entry:
  br header
header:
  %i = phi i64 [ 0, entry ], [ %inext, header ]
  %x = phi i64 [ 5, entry ], [ %x, header ]
  %inext = add %i, 1
  %c = lt %inext, 10
  condbr %c, header, exit
exit:
  ret %x
}`

// firstDifference describes the first line where got and want differ, or
// returns "".
func firstDifference(got, want []string) string {
	for i := 0; i < len(got) || i < len(want); i++ {
		g, w := "<end>", "<end>"
		if i < len(got) {
			g = got[i]
		}
		if i < len(want) {
			w = want[i]
		}
		if g != w {
			return fmt.Sprintf("line %d:\n  got  %s\n  want %s", i+1, g, w)
		}
	}
	return ""
}

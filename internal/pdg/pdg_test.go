package pdg_test

import (
	"math/rand"
	"slices"
	"testing"

	"noelle/internal/bench"
	"noelle/internal/ir"
	"noelle/internal/irtext"
	"noelle/internal/minic"
	"noelle/internal/passes"
	"noelle/internal/pdg"
)

func compile(t *testing.T, src string) *ir.Module {
	t.Helper()
	m, err := minic.Compile("t", src)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	passes.Optimize(m)
	return m
}

func TestRegisterDeps(t *testing.T) {
	m := compile(t, `
int main() {
  int a = 3;
  int b = a * 2;
  return b + a;
}`)
	f := m.FunctionByName("main")
	g := pdg.NewBuilder(m).FunctionPDG(f)
	// Every non-constant operand use must appear as a register edge.
	f.Instrs(func(in *ir.Instr) bool {
		for _, op := range in.Ops {
			def, ok := op.(*ir.Instr)
			if !ok {
				continue
			}
			found := false
			for _, e := range g.InEdges(in) {
				if e.From == def && !e.Control && !e.Memory {
					found = true
				}
			}
			if !found {
				t.Errorf("missing register dep %s -> %s", def.Ident(), in.Ident())
			}
		}
		return true
	})
}

func TestControlDeps(t *testing.T) {
	m := compile(t, `
int main() {
  int x = 5;
  int r = 0;
  if (x > 3) { r = 1; } else { r = 2; }
  return r;
}`)
	// After const folding the branch may be folded; use a parameterized
	// version instead.
	m = compile(t, `
int pick(int x) {
  int r = 0;
  if (x > 3) { r = 1; } else { r = 2; }
  return r;
}
int main() { return pick(5); }`)
	f := m.FunctionByName("pick")
	g := pdg.NewBuilder(m).FunctionPDG(f)
	ctrlEdges := 0
	g.Edges(func(e *pdg.Edge) bool {
		if e.Control {
			ctrlEdges++
			if e.From.Opcode != ir.OpCondBr {
				t.Errorf("control dep from non-branch %s", e.From)
			}
		}
		return true
	})
	if ctrlEdges == 0 {
		t.Error("no control dependences found for the if/else")
	}
}

func TestMemoryDepClassification(t *testing.T) {
	m := compile(t, `
int g;
int use(int x) {
  g = x;        // store 1
  int a = g;    // load (RAW on store 1)
  g = a + 1;    // store 2 (WAW with store 1, WAR with load)
  return g;
}
int main() { return use(3); }`)
	f := m.FunctionByName("use")
	g := pdg.NewBuilder(m).FunctionPDG(f)
	have := map[pdg.DepClass]bool{}
	g.Edges(func(e *pdg.Edge) bool {
		if e.Memory {
			have[e.Class] = true
			if !e.Must {
				t.Errorf("same-global dep should be must: %s", e)
			}
		}
		return true
	})
	for _, cls := range []pdg.DepClass{pdg.RAW, pdg.WAW, pdg.WAR} {
		if !have[cls] {
			t.Errorf("missing %s memory dependence", cls)
		}
	}
}

func TestPrecisionBeatsBaseline(t *testing.T) {
	m := compile(t, `
int a[16];
int b[16];
int kernel(int *p, int *q) {
  int i;
  for (i = 0; i < 16; i = i + 1) { p[i] = q[i] * 2; }
  return p[0];
}
int main() { return kernel(&a[0], &b[0]); }`)
	f := m.FunctionByName("kernel")
	tB, dB := pdg.NewBaselineBuilder(m).PotentialMemoryPairs(f)
	tN, dN := pdg.NewBuilder(m).PotentialMemoryPairs(f)
	if tB != tN {
		t.Fatalf("pair universes differ: %d vs %d", tB, tN)
	}
	if dN <= dB {
		t.Errorf("NOELLE stack (%d/%d) should disprove more than baseline (%d/%d)", dN, tN, dB, tB)
	}
}

func TestIOOrderingEdges(t *testing.T) {
	m := compile(t, `
int main() {
  print_i64(1);
  print_i64(2);
  return 0;
}`)
	f := m.FunctionByName("main")
	g := pdg.NewBuilder(m).FunctionPDG(f)
	var calls []*ir.Instr
	f.Instrs(func(in *ir.Instr) bool {
		if in.Opcode == ir.OpCall {
			calls = append(calls, in)
		}
		return true
	})
	if len(calls) != 2 {
		t.Fatalf("calls = %d", len(calls))
	}
	if len(g.EdgesBetween(calls[0], calls[1])) == 0 {
		t.Error("two prints have no ordering dependence (output could reorder)")
	}
}

// An indirect call the points-to analysis resolves no target for (here the
// function's address went through integer arithmetic) may do anything: it
// is a memory node ordered against the load that follows it, not a call
// to nothing.
func TestOpaqueIndirectCallOrdersMemory(t *testing.T) {
	m, err := irtext.Parse(`module "opaque"

global @g : i64 zeroinit

func @bump(%x: i64) i64 {
entry:
  %t0 = load i64, @g
  %t1 = add %t0, %x
  store i64 %t1, @g
  ret %t1
}

func @main() i64 {
entry:
  %a = p2i @bump
  %b = add %a, 0
  %f = i2p fn(i64) i64, %b
  %r = call i64 %f(5)
  %v = load i64, @g
  ret %v
}
`)
	if err != nil {
		t.Fatal(err)
	}
	f := m.FunctionByName("main")
	g := pdg.NewBuilder(m).FunctionPDG(f)
	var call, load *ir.Instr
	f.Instrs(func(in *ir.Instr) bool {
		switch in.Opcode {
		case ir.OpCall:
			call = in
		case ir.OpLoad:
			load = in
		}
		return true
	})
	memory := false
	for _, e := range g.EdgesBetween(call, load) {
		memory = memory || e.Memory
	}
	if !memory {
		t.Error("no memory dependence from the unresolved call to the load of @g it may write")
	}
}

func TestEmbedReloadRoundTrip(t *testing.T) {
	m := compile(t, `
int g;
int main() {
  int i;
  for (i = 0; i < 4; i = i + 1) { g = g + i; }
  return g;
}`)
	m.AssignIDs()
	f := m.FunctionByName("main")
	b := pdg.NewBuilder(m)
	orig := b.FunctionPDG(f)
	pdg.Embed(m, map[*ir.Function]*pdg.Graph{f: orig})

	re, err := pdg.Reload(m, f)
	if err != nil {
		t.Fatalf("reload: %v", err)
	}
	if re.NumEdges() != orig.NumEdges() {
		t.Fatalf("edge count %d != %d after reload", re.NumEdges(), orig.NumEdges())
	}
	// Every edge must survive with identical flags.
	origEdges := orig.SortedEdges()
	reEdges := re.SortedEdges()
	for i := range origEdges {
		a, b := origEdges[i], reEdges[i]
		if a.From != b.From || a.To != b.To || a.Control != b.Control ||
			a.Memory != b.Memory || a.Class != b.Class || a.Must != b.Must {
			t.Fatalf("edge %d mismatch: %s vs %s", i, a, b)
		}
	}

	// Clean must strip it.
	pdg.Clean(m)
	if pdg.HasEmbedded(m, f) {
		t.Error("Clean left the embedded PDG behind")
	}
}

func TestInternalExternalNodes(t *testing.T) {
	m := compile(t, `int main() { int a = 1; return a + 2; }`)
	f := m.FunctionByName("main")
	var first, second *ir.Instr
	f.Instrs(func(in *ir.Instr) bool {
		if first == nil {
			first = in
		} else if second == nil {
			second = in
		}
		return true
	})
	// An endpoint outside the internal nodes becomes an external node.
	g := pdg.NewGraph([]*ir.Instr{first}, []pdg.Edge{{From: second, To: first}}, nil, nil)
	if !g.Internal(first) || !g.External(second) || g.External(first) || g.Internal(second) {
		t.Error("internal/external classification wrong")
	}
	if len(g.InternalNodes()) != 1 || len(g.ExternalNodes()) != 1 || g.NumNodes() != 2 {
		t.Error("node listings wrong")
	}
	if len(g.OutEdges(second)) != 1 || len(g.InEdges(first)) != 1 || len(g.EdgesBetween(second, first)) != 1 {
		t.Error("the edge is not listed at both endpoints")
	}
	// Internal status wins when the endpoint is also an internal node.
	g = pdg.NewGraph([]*ir.Instr{first, second}, []pdg.Edge{{From: second, To: first}}, nil, nil)
	if g.External(second) || !g.Internal(second) {
		t.Error("an internal endpoint was made external")
	}
	if len(g.InternalNodes()) != 2 || len(g.ExternalNodes()) != 0 {
		t.Error("node listings wrong")
	}
}

func TestExtractAfterPrintParse(t *testing.T) {
	m := compile(t, `
int g;
int helper(int x) { return x * 2 + g; }
int main() {
  int i;
  for (i = 0; i < 4; i = i + 1) { g = g + helper(i); }
  return g;
}`)
	m.AssignIDs()
	b := pdg.NewBuilder(m)
	graphs := map[*ir.Function]*pdg.Graph{}
	for _, f := range m.Functions {
		if !f.IsDeclaration() {
			graphs[f] = b.FunctionPDG(f)
		}
	}
	pdg.Embed(m, graphs)

	// A fresh process parses the printed module; assigned IDs are gone
	// (-1), which is exactly the state Reload cannot handle but Extract
	// must: it re-derives the syntactic numbering itself.
	back, err := irtext.Parse(ir.Print(m))
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	got, err := pdg.Extract(back)
	if err != nil {
		t.Fatalf("extract: %v", err)
	}
	for _, f := range m.Functions {
		if f.IsDeclaration() {
			continue
		}
		bf := back.FunctionByName(f.Nam)
		g := got[bf]
		if g == nil {
			t.Fatalf("extract lost @%s", f.Nam)
		}
		if g.NumEdges() != graphs[f].NumEdges() || g.NumNodes() != graphs[f].NumNodes() {
			t.Errorf("@%s: extracted %d nodes/%d edges, embedded %d/%d",
				f.Nam, g.NumNodes(), g.NumEdges(), graphs[f].NumNodes(), graphs[f].NumEdges())
		}
	}

	// A module without embedded metadata extracts to nothing.
	pdg.Clean(back)
	if gone, err := pdg.Extract(back); err != nil || gone != nil {
		t.Fatalf("extract after clean = %v, %v; want nil, nil", gone, err)
	}
}

func TestExtractRejectsCorruptMetadata(t *testing.T) {
	m := compile(t, `int main() { return 1 + 2; }`)
	m.SetMD("noelle.pdg.main", "0>999:0M")
	if _, err := pdg.Extract(m); err == nil {
		t.Error("Extract accepted an out-of-range instruction reference")
	}
	m.SetMD("noelle.pdg.main", "not-an-edge")
	if _, err := pdg.Extract(m); err == nil {
		t.Error("Extract accepted malformed metadata")
	}
}

func TestCleanStripsPDGKeys(t *testing.T) {
	m := compile(t, `int main() { return 0; }`)
	m.SetMD("noelle.pdg.main", "")
	m.SetMD("noelle.profile", "x")
	m.SetMD("other.key", "keep")
	f := m.FunctionByName("main")
	f.SetMD("noelle.pdg.note", "x")
	pdg.Clean(m)
	if m.MD.Has("noelle.pdg.main") || m.MD.Has("noelle.profile") || f.MD.Has("noelle.pdg.note") {
		t.Error("Clean left noelle.* metadata behind")
	}
	if !m.MD.Has("other.key") {
		t.Error("Clean removed non-noelle metadata")
	}
}

// TestBulkGraphKeepsInsertionOrder: a graph laid out in bulk lists nodes
// and edges exactly as edge-by-edge insertion did — internal nodes, then
// each new endpoint From before To; every node's out- and in-edges in
// insertion order; Edges by node, then out-edge order — whether endpoint
// positions are looked up or given. The edges are every corpus function's
// cold PDG edges, shuffled, over all of its instructions and over the
// first half of them (so the rest become external).
func TestBulkGraphKeepsInsertionOrder(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for _, bm := range bench.List() {
		m, err := bm.Compile()
		if err != nil {
			t.Fatal(err)
		}
		b := pdg.NewBuilder(m)
		for _, f := range m.Functions {
			var instrs []*ir.Instr
			f.Instrs(func(in *ir.Instr) bool {
				instrs = append(instrs, in)
				return true
			})
			var edges []pdg.Edge
			b.FunctionPDG(f).Edges(func(e *pdg.Edge) bool {
				edges = append(edges, *e)
				return true
			})
			r.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
			pos := map[*ir.Instr]int32{}
			for i, in := range instrs {
				pos[in] = int32(i)
			}
			from, to := make([]int32, len(edges)), make([]int32, len(edges))
			for k, e := range edges {
				from[k], to[k] = pos[e.From], pos[e.To]
			}
			for _, c := range []struct {
				name     string
				internal []*ir.Instr
				from, to []int32
			}{
				{"looked up", instrs, nil, nil},
				{"given", instrs, from, to},
				{"half internal", instrs[:len(instrs)/2], nil, nil},
			} {
				es := slices.Clone(edges)
				g := pdg.NewGraph(slices.Clone(c.internal), es, c.from, c.to)
				if msg := insertionOrderMismatch(g, c.internal, es); msg != "" {
					t.Errorf("%s @%s, positions %s: %s", bm.Name, f.Nam, c.name, msg)
				}
			}
		}
	}
}

// insertionOrderMismatch checks g against the insertion-order
// specification for the given internal nodes and edges (g's own backing
// array, so edges compare by identity).
func insertionOrderMismatch(g *pdg.Graph, internal []*ir.Instr, edges []pdg.Edge) string {
	nodes := slices.Clone(internal)
	for k := range edges {
		for _, in := range []*ir.Instr{edges[k].From, edges[k].To} {
			if !slices.Contains(nodes, in) {
				nodes = append(nodes, in)
			}
		}
	}
	if !slices.Equal(g.Nodes(), nodes) || len(g.InternalNodes()) != len(internal) || g.NumEdges() != len(edges) {
		return "nodes differ"
	}
	var all []*pdg.Edge
	for i, in := range nodes {
		if g.Internal(in) != (i < len(internal)) || g.External(in) != (i >= len(internal)) {
			return "internal/external classification differs at " + in.Ident()
		}
		var out, into []*pdg.Edge
		for k := range edges {
			if edges[k].From == in {
				out = append(out, &edges[k])
			}
			if edges[k].To == in {
				into = append(into, &edges[k])
			}
		}
		if !slices.Equal(g.OutEdges(in), out) || !slices.Equal(g.InEdges(in), into) {
			return "edge rows differ at " + in.Ident()
		}
		all = append(all, out...)
	}
	var listed []*pdg.Edge
	g.Edges(func(e *pdg.Edge) bool {
		listed = append(listed, e)
		return true
	})
	if !slices.Equal(listed, all) {
		return "Edges order differs"
	}
	return ""
}

package core_test

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"noelle/internal/abscache"
	"noelle/internal/core"
	"noelle/internal/fuzz"
	"noelle/internal/ir"
	"noelle/internal/irtext"
	"noelle/internal/loops"
	"noelle/internal/minic"
	"noelle/internal/passes"
	"noelle/internal/pdg"
	"noelle/internal/sccdag"
)

const cacheSrc = `
int table[128];

int fill(int seed) {
  int s = 0;
  for (int i = 0; i < 128; i = i + 1) {
    table[i] = seed + i;
    s = s + table[i];
  }
  return s;
}

int scan(int lo) {
  int hits = 0;
  for (int i = 0; i < 128; i = i + 1) {
    if (table[i] > lo) {
      hits = hits + 1;
    }
  }
  return hits;
}

int main() {
  int s = fill(3);
  print_i64(s);
  print_i64(scan(s / 128));
  return 0;
}
`

func compileCache(t *testing.T) *ir.Module {
	t.Helper()
	m, err := minic.Compile("cache_test", cacheSrc)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	passes.Optimize(m)
	return m
}

func definedFuncs(m *ir.Module) int {
	n := 0
	for _, f := range m.Functions {
		if !f.IsDeclaration() {
			n++
		}
	}
	return n
}

// TestWarmLoadBuildsZeroPDGs is the PR's acceptance check: a second load
// of the same program with the same cache directory materializes every
// function PDG from the store — zero cold builds, zero misses — and the
// warm graphs match freshly built ones edge for edge.
func TestWarmLoadBuildsZeroPDGs(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()

	// Run 1 (cold): everything is a miss, then a build, then a put.
	m1 := compileCache(t)
	opts := core.DefaultOptions()
	opts.CacheDir = dir
	n1 := core.New(m1, opts)
	if err := n1.StoreErr(); err != nil {
		t.Fatalf("store: %v", err)
	}
	if err := n1.PrecomputePDGs(ctx, 4); err != nil {
		t.Fatalf("precompute: %v", err)
	}
	builds, hits, misses := n1.CacheStats()
	want := int64(definedFuncs(m1))
	if builds != want || hits != 0 || misses != want {
		t.Fatalf("cold run: builds=%d hits=%d misses=%d, want %d/0/%d", builds, hits, misses, want, want)
	}
	if err := n1.CloseStore(); err != nil {
		t.Fatalf("close: %v", err)
	}

	// Run 2 simulates a second process: fresh compile, fresh manager.
	m2 := compileCache(t)
	n2 := core.New(m2, opts)
	if err := n2.PrecomputePDGs(ctx, 4); err != nil {
		t.Fatalf("precompute: %v", err)
	}
	builds, hits, misses = n2.CacheStats()
	if builds != 0 || misses != 0 || hits != want {
		t.Fatalf("warm run: builds=%d hits=%d misses=%d, want 0/%d/0", builds, hits, misses, want)
	}

	// The warm graphs must be structurally identical to cold builds.
	for _, f := range m2.Functions {
		if f.IsDeclaration() {
			continue
		}
		warm := n2.FunctionPDG(f)
		cold := pdg.NewBuilder(m2).FunctionPDG(f)
		if warm.NumEdges() != cold.NumEdges() || warm.NumNodes() != cold.NumNodes() {
			t.Errorf("@%s: warm graph %d nodes/%d edges, cold %d/%d",
				f.Nam, warm.NumNodes(), warm.NumEdges(), cold.NumNodes(), cold.NumEdges())
		}
	}
	if err := n2.CloseStore(); err != nil {
		t.Fatalf("close: %v", err)
	}
}

// TestCacheInvalidationRebuilds: mutating a function changes its
// fingerprint, so a warm store must not serve the stale record for it —
// while untouched functions still load warm.
func TestCacheInvalidationRebuilds(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	opts := core.DefaultOptions()
	opts.CacheDir = dir

	m1 := compileCache(t)
	n1 := core.New(m1, opts)
	if err := n1.PrecomputePDGs(ctx, 2); err != nil {
		t.Fatal(err)
	}
	if err := n1.CloseStore(); err != nil {
		t.Fatal(err)
	}

	// Second session over a semantically edited @fill.
	m2 := compileCache(t)
	fill := m2.FunctionByName("fill")
	edited := false
	fill.Instrs(func(in *ir.Instr) bool {
		if in.Opcode == ir.OpAdd {
			in.Ops[1] = ir.ConstInt(17)
			edited = true
			return false
		}
		return true
	})
	if !edited {
		t.Fatal("no add instruction to edit in @fill")
	}
	n2 := core.New(m2, opts)
	n2.FunctionPDG(fill)
	builds, hits, misses := n2.CacheStats()
	if builds != 1 || misses != 1 || hits != 0 {
		t.Fatalf("edited @fill: builds=%d hits=%d misses=%d, want 1/0/1", builds, hits, misses)
	}
	// @scan does not call @fill, so it still loads warm.
	n2.FunctionPDG(m2.FunctionByName("scan"))
	builds, hits, _ = n2.CacheStats()
	if builds != 1 || hits != 1 {
		t.Fatalf("untouched @scan: builds=%d hits=%d, want 1/1", builds, hits)
	}
	// @main calls @fill, so its fingerprint changed too: rebuild.
	n2.FunctionPDG(m2.FunctionByName("main"))
	builds, _, _ = n2.CacheStats()
	if builds != 2 {
		t.Fatalf("caller @main: builds=%d, want 2", builds)
	}
	if err := n2.CloseStore(); err != nil {
		t.Fatal(err)
	}
}

// TestEmbeddedPDGRoundTrip closes the paper's noelle-meta-pdg-embed loop
// end to end: embed, print, parse (a fresh process would do exactly
// this), then load the manager — FunctionPDG must consume the embedded
// metadata instead of rebuilding, without the store's help.
func TestEmbeddedPDGRoundTrip(t *testing.T) {
	m := compileCache(t)
	m.AssignIDs()
	b := pdg.NewBuilder(m)
	graphs := map[*ir.Function]*pdg.Graph{}
	for _, f := range m.Functions {
		if !f.IsDeclaration() {
			graphs[f] = b.FunctionPDG(f)
		}
	}
	pdg.Embed(m, graphs)

	back, err := irtext.Parse(ir.Print(m))
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	n := core.New(back, core.DefaultOptions())
	for _, f := range back.Functions {
		if f.IsDeclaration() {
			continue
		}
		g := n.FunctionPDG(f)
		orig := graphs[m.FunctionByName(f.Nam)]
		if g.NumEdges() != orig.NumEdges() {
			t.Errorf("@%s: reloaded %d edges, embedded %d", f.Nam, g.NumEdges(), orig.NumEdges())
		}
	}
	builds, _, _ := n.CacheStats()
	if builds != 0 {
		t.Fatalf("manager built %d PDGs despite embedded metadata", builds)
	}

	// After a module-wide invalidation the embedded graphs are stale;
	// the manager must rebuild rather than trust them.
	n.InvalidateModule()
	n.FunctionPDG(back.FunctionByName("fill"))
	if builds, _, _ = n.CacheStats(); builds != 1 {
		t.Fatalf("post-invalidation builds = %d, want 1", builds)
	}
}

// TestWarmBundlesMatchCold: a loop bundle built over a function PDG
// decoded from a store record (abscache.NewRecord, Record.BuildGraph) or
// from embedded metadata (pdg.Embed, pdg.Extract) agrees with the bundle
// over the cold build on what the parallelizers read: the aSCCDAG's nodes
// and topological order, each node's carried edges, and CarriedDataDeps,
// on every loop of fuzz.Subjects(150). The loop DG's own edge order is not
// pinned: a record and the metadata list edges sorted, the cold build in
// insertion order, and a node's edges follow that order.
func TestWarmBundlesMatchCold(t *testing.T) {
	bundles, reordered := 0, 0
	err := fuzz.Subjects(150, func(name string, m *ir.Module) {
		n := core.New(m, core.DefaultOptions())
		pt := n.PointsTo()
		impure := func(call *ir.Instr) bool { return !pt.CallIsPure(call) }
		cold := map[*ir.Function]*pdg.Graph{}
		for _, f := range m.Functions {
			if !f.IsDeclaration() {
				cold[f] = n.FunctionPDG(f)
			}
		}
		m.AssignIDs()
		pdg.Embed(m, cold)
		embedded, err := pdg.Extract(m)
		if err != nil {
			t.Fatalf("%s: extract: %v", name, err)
		}
		for f, g := range cold {
			stored, err := abscache.NewRecord(ir.Fingerprint{}, f, g).BuildGraph(f)
			if err != nil {
				t.Fatalf("%s @%s: record: %v", name, f.Nam, err)
			}
			pos := map[*ir.Instr]int{}
			f.Instrs(func(in *ir.Instr) bool {
				pos[in] = len(pos)
				return true
			})
			for _, ls := range n.LoopStructures(f) {
				bundles++
				l := n.Loop(ls)
				want := pinned(l, pos)
				for source, warm := range map[string]*pdg.Graph{"store record": stored, "embedded metadata": embedded[f]} {
					wl := loops.NewLoop(ls, warm, impure)
					if got := pinned(wl, pos); !slices.Equal(got, want) {
						t.Errorf("%s @%s/%s: bundle over the %s PDG differs from the cold one:\n got  %q\n want %q",
							name, f.Nam, ls.Header.Nam, source, got, want)
					}
					if !slices.Equal(dgEdges(wl, pos), dgEdges(l, pos)) {
						reordered++
					}
				}
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%d loop bundles; %d warm loop DGs list their edges in another order", bundles, reordered)
	if bundles < 2198 {
		t.Errorf("only %d loop bundles", bundles)
	}
}

func dgEdges(l *loops.Loop, pos map[*ir.Instr]int) []string {
	var out []string
	l.DG.Edges(func(e *pdg.Edge) bool {
		out = append(out, fmt.Sprintf("%d>%d:%s", pos[e.From], pos[e.To], pdg.EncodeEdgeFlags(e)))
		return true
	})
	return out
}

// pinned renders the bundle queries warm and cold PDGs must agree on,
// naming instructions by their position in the function.
func pinned(l *loops.Loop, pos map[*ir.Instr]int) []string {
	var out []string
	edge := func(e *pdg.Edge) string {
		return fmt.Sprintf("%d>%d:%s", pos[e.From], pos[e.To], pdg.EncodeEdgeFlags(e))
	}
	index := map[*sccdag.Node]int{}
	for i, node := range l.SCCDAG.Nodes {
		index[node] = i
		line := fmt.Sprintf("scc %d %s:", i, node.Kind)
		for _, in := range node.Instrs {
			line += fmt.Sprintf(" %d", pos[in])
		}
		out = append(out, line)
		for _, e := range node.Carried {
			out = append(out, fmt.Sprintf("scc %d carried %s", i, edge(e)))
		}
	}
	topo := "topo"
	for _, node := range l.SCCDAG.TopoOrder() {
		topo += fmt.Sprintf(" %d", index[node])
	}
	out = append(out, topo)
	for _, e := range l.CarriedDataDeps() {
		out = append(out, "carried data dep "+edge(e))
	}
	return out
}

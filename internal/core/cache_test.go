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
	"noelle/internal/tools/doall"
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

// TestCacheInvalidationRebuilds: a store record is keyed by the whole
// module's fingerprint, so once @fill is edited no record of the first
// session serves the second: whole-module points-to can carry an edit
// into any function's graph, so every function misses and is rebuilt.
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
	if err := n2.PrecomputePDGs(ctx, 2); err != nil {
		t.Fatal(err)
	}
	want := int64(definedFuncs(m2))
	if builds, hits, misses := n2.CacheStats(); builds != want || misses != want || hits != 0 {
		t.Fatalf("after editing @fill: builds=%d hits=%d misses=%d, want %d/0/%d", builds, hits, misses, want, want)
	}
	if err := n2.CloseStore(); err != nil {
		t.Fatal(err)
	}
}

// shiftSrc is a program whose @shift is one body under two callers:
// with dst != src its loop is DOALL, with dst == src every iteration
// reads what the previous one wrote. A key over @shift's body and
// callees alone is equal in both programs, and serving the first's graph
// to the second lets DOALL lower a loop-carried dependence.
const shiftSrc = `
int a[201];
int b[201];

void shift(int *p, int *q, int n) {
  for (int i = 0; i < n; i = i + 1) {
    p[i + 1] = (q[i] + i) %% 1000003;
  }
}

int main() {
  for (int i = 0; i < 201; i = i + 1) {
    a[i] = i * 7 + 1;
  }
  shift(%s, 200);
  int s = 0;
  for (int i = 0; i < 201; i = i + 1) {
    s = s + a[i] + b[i] * (i + 1);
  }
  print_i64(s);
  return 0;
}
`

// compileShift compiles shiftSrc calling shift(args, 200), under the one
// module name every program of noelle-whole-ir has, so both programs
// share a store namespace.
func compileShift(t *testing.T, args string) *ir.Module {
	t.Helper()
	m, err := minic.Compile("whole", fmt.Sprintf(shiftSrc, args))
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	passes.Optimize(m)
	return m
}

// shape renders g as f's positional edges, sorted.
func shape(f *ir.Function, g *pdg.Graph) []string {
	pos := map[*ir.Instr]int{}
	f.Instrs(func(in *ir.Instr) bool {
		pos[in] = len(pos)
		return true
	})
	var out []string
	g.Edges(func(e *pdg.Edge) bool {
		out = append(out, fmt.Sprintf("%d>%d:%s", pos[e.From], pos[e.To], pdg.EncodeEdgeFlags(e)))
		return true
	})
	slices.Sort(out)
	return out
}

// TestStoreKeyCoversCallers: after the program calling shift(b, a) has
// filled a store, the program calling shift(a, a) gets the graph of
// @shift its own storeless build has, and DOALL refuses @shift's loop.
func TestStoreKeyCoversCallers(t *testing.T) {
	dir := t.TempDir()
	opts := core.DefaultOptions()
	opts.CacheDir = dir
	first := core.New(compileShift(t, "b, a"), opts)
	if err := first.PrecomputePDGs(context.Background(), 2); err != nil {
		t.Fatal(err)
	}
	if err := first.CloseStore(); err != nil {
		t.Fatal(err)
	}

	m := compileShift(t, "a, a")
	n := core.New(m, opts)
	shift := m.FunctionByName("shift")
	coldShift := compileShift(t, "a, a").FunctionByName("shift")
	want := shape(coldShift, core.New(coldShift.Parent, core.DefaultOptions()).FunctionPDG(coldShift))
	if got := shape(shift, n.FunctionPDG(shift)); !slices.Equal(got, want) {
		t.Errorf("@shift from the store has %d edges, its storeless build %d:\n got  %q\n want %q", len(got), len(want), got, want)
	}
	if _, hits, _ := n.CacheStats(); hits != 0 {
		t.Errorf("%d store hits across programs", hits)
	}
	lss := n.LoopStructures(shift)
	if len(lss) != 1 {
		t.Fatalf("@shift has %d loops, want 1", len(lss))
	}
	if _, err := doall.PlanLoop(n, lss[0]); err == nil {
		t.Error("doall planned @shift's loop, which carries a dependence through *p")
	}
	if err := n.CloseStore(); err != nil {
		t.Fatal(err)
	}
}

// TestStoreKeyCoversAliasStack: a baseline-alias-stack manager and a
// full-stack one sharing a store directory each get the graphs their own
// storeless build has, whichever filled the store first.
func TestStoreKeyCoversAliasStack(t *testing.T) {
	storeless := func(baseline bool) map[string][]string {
		m := compileShift(t, "b, a")
		n := core.New(m, core.Options{BaselineAA: baseline, MinHotness: 0.05, Cores: 2})
		out := map[string][]string{}
		for _, f := range m.Functions {
			if !f.IsDeclaration() {
				out[f.Nam] = shape(f, n.FunctionPDG(f))
			}
		}
		return out
	}
	want := map[bool]map[string][]string{false: storeless(false), true: storeless(true)}
	differ := 0
	for name, g := range want[false] {
		if !slices.Equal(g, want[true][name]) {
			differ++
		}
	}
	if differ == 0 {
		t.Fatal("the two alias stacks build the same graphs: the fixture tests nothing")
	}
	for _, baselineFirst := range []bool{false, true} {
		dir := t.TempDir()
		for _, baseline := range []bool{baselineFirst, !baselineFirst} {
			m := compileShift(t, "b, a")
			n := core.New(m, core.Options{BaselineAA: baseline, MinHotness: 0.05, Cores: 2, CacheDir: dir})
			for _, f := range m.Functions {
				if f.IsDeclaration() {
					continue
				}
				if got := shape(f, n.FunctionPDG(f)); !slices.Equal(got, want[baseline][f.Nam]) {
					t.Errorf("baseline=%v after baseline=%v: @%s has %d edges, its storeless build %d",
						baseline, baselineFirst, f.Nam, len(got), len(want[baseline][f.Nam]))
				}
			}
			if _, hits, _ := n.CacheStats(); hits != 0 {
				t.Errorf("baseline=%v after baseline=%v: %d store hits across alias stacks", baseline, baselineFirst, hits)
			}
			if err := n.CloseStore(); err != nil {
				t.Fatal(err)
			}
		}
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

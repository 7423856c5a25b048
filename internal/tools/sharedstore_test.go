// sharedstore_test is the regression suite for the compile service's
// store-sharing contract: many pipelines, each on its own manager and
// module clone, may run concurrently against ONE abscache.Store (the
// noelle-serve deployment shape). Every store operation — gets, puts,
// loop-summary enrichment, and RunPipeline's end-of-run flush — must be
// safe under that interleaving, and the store must come out of it
// coherent: no corrupt records, and fully warm for the next manager.
package tools_test

import (
	"context"
	"sync"
	"testing"

	"noelle/internal/abscache"
	"noelle/internal/bench"
	"noelle/internal/core"
	"noelle/internal/ir"
	"noelle/internal/irtext"
	"noelle/internal/tool"
)

func TestConcurrentPipelinesSharingOneStore(t *testing.T) {
	const pipelines = 8
	base := compile(t, registryFixture)
	root := t.TempDir()
	store, err := abscache.Open(root, base, 0)
	if err != nil {
		t.Fatalf("open store: %v", err)
	}

	var wg sync.WaitGroup
	errs := make(chan error, pipelines)
	for i := 0; i < pipelines; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Each pipeline gets its own module clone and manager — the
			// store is the only shared state, as in the daemon.
			m := ir.CloneModule(base)
			n := newN(m)
			n.SetStore(store)
			opts := tool.DefaultOptions()
			opts.PrecomputeWorkers = 2
			_, _, err := tool.RunPipeline(context.Background(), n, []string{"licm", "dead"}, opts)
			errs <- err
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Errorf("pipeline: %v", err)
		}
	}
	if err := store.Close(); err != nil {
		t.Fatalf("close store: %v", err)
	}

	// The store must come out fully warm: a fresh manager over the
	// pristine module should load every PDG it precomputes, building none.
	warm, err := abscache.Open(root, base, 0)
	if err != nil {
		t.Fatalf("reopen store: %v", err)
	}
	n := newN(ir.CloneModule(base))
	n.SetStore(warm)
	if err := n.PrecomputePDGs(context.Background(), 2); err != nil {
		t.Fatalf("precompute: %v", err)
	}
	builds, hits, _ := n.CacheStats()
	if builds != 0 {
		t.Errorf("fresh manager built %d PDGs over the shared store; want 0 (all warm)", builds)
	}
	if hits == 0 {
		t.Error("fresh manager loaded nothing from the shared store")
	}
	if err := warm.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	// ...and structurally sound: no torn records, no leftover temp files.
	// (Orphaned is legitimate here — transforming stages re-Put functions
	// under post-transform fingerprints, re-pointing the index.)
	res, err := abscache.GC(root)
	if err != nil {
		t.Fatalf("gc: %v", err)
	}
	if res.Corrupt != 0 || res.Temp != 0 {
		t.Errorf("gc found %d corrupt records, %d temp files; want none", res.Corrupt, res.Temp)
	}
}

// TestColdCompileWritesAtMostTwoSegments: a cold compile op over the
// whole program (text in, perspective,licm,dead with an empty store,
// flush) commits every defined function's record in at most two segment
// files, one per flush that has records pending, where one file per
// record (and one more per enriched record) made it 242 commits.
func TestColdCompileWritesAtMostTwoSegments(t *testing.T) {
	whole, err := bench.WholeProgram()
	if err != nil {
		t.Fatal(err)
	}
	m, err := irtext.Parse(ir.Print(whole))
	if err != nil {
		t.Fatal(err)
	}
	root := t.TempDir()
	opts := core.DefaultOptions()
	opts.CacheDir = root
	n := core.New(m, opts)
	topts := tool.DefaultOptions()
	topts.PrecomputeWorkers, topts.VerifyTier = 2, "quick"
	if _, _, err := tool.RunPipeline(context.Background(), n, []string{"perspective", "licm", "dead"}, topts); err != nil {
		t.Fatal(err)
	}
	if err := n.CloseStore(); err != nil {
		t.Fatal(err)
	}
	mods, err := abscache.ScanRoot(root)
	if err != nil || len(mods) != 1 {
		t.Fatalf("scan = %+v, %v", mods, err)
	}
	defined := 0
	for _, f := range m.Functions {
		if !f.IsDeclaration() {
			defined++
		}
	}
	if mods[0].Segments < 1 || mods[0].Segments > 2 || mods[0].Records < defined {
		t.Errorf("cold op left %d records in %d segments, want every defined function's record in at most 2", mods[0].Records, mods[0].Segments)
	}
	t.Logf("%d records in %d segments, %d bytes", mods[0].Records, mods[0].Segments, mods[0].Bytes)
}

package main

import (
	"fmt"
	"io/fs"
	"path/filepath"
	"time"

	"noelle/internal/abscache"
	"noelle/internal/core"
	"noelle/internal/interp"
	"noelle/internal/ir"
	"noelle/internal/irtext"
	"noelle/internal/tool"
)

// wholeTools is the pipeline of the two compile workloads: one read-only
// stage that pulls every abstraction, then two transforming ones.
var wholeTools = []string{"perspective", "licm", "dead"}

func wholeToolOptions(cores int) tool.Options {
	o := tool.DefaultOptions()
	o.PrecomputeWorkers, o.VerifyTier = cores, "quick"
	return o
}

// wholeState is what the compile workloads set up: the module as text, the
// untransformed module to race against, what it prints on the walker, and
// for compile_warm a store that already holds every record the op asks for.
type wholeState struct {
	text string
	orig *ir.Module
	want expectation
	// refIR is what a compile with no store at all prints: the reference
	// for what a store-backed compile must produce.
	refIR    string
	storeDir string
}

// wholeOp is the compile op of compile_cold and compile_warm, text in and
// verified module out with the store on disk: irtext.Parse, core.New over
// cacheDir, the pipeline with C precompute workers, then Store.Flush.
func wholeOp(sp *spans, cores, op int, text, cacheDir string) (c compiled) {
	c.allocMB = allocMB(func() {
		id := sp.begin("compile_op", 0, op)
		start := time.Now()
		sp.timed("irtext.parse", id, op, func() { c.mod, c.err = irtext.Parse(text) })
		if c.err == nil {
			c.instrsIn = c.mod.NumInstrs()
			opts := core.DefaultOptions()
			opts.Cores, opts.CacheDir = cores, cacheDir
			var n *core.Noelle
			sp.timed("core.new", id, op, func() { n = core.New(c.mod, opts) })
			if c.err = n.StoreErr(); c.err == nil {
				c.reports, c.err = pipeline(sp, id, op, n, wholeTools, wholeToolOptions(cores))
			}
			if c.err == nil && n.Store() != nil {
				sp.timed("abscache.flush", id, op, func() { c.err = n.Store().Flush() })
			}
			c.builds, c.hits, c.misses = n.CacheStats()
		}
		c.wall = time.Since(start)
		sp.end(id)
	})
	return c
}

func (st *wholeState) setUpOnce(r *run, warm bool, dir string) error {
	m, _, err := frontEnd(nil, 0, 0, "whole-120x48", wholeSource(120, 48, 0))
	if err != nil {
		return err
	}
	st.text = ir.Print(m)
	// The op's input is the text, so the module to race against is the
	// text parsed back, not the front end's own.
	if st.orig, err = irtext.Parse(st.text); err != nil {
		return err
	}
	e, err := execute(st.orig, r.cores, func(it *interp.Interp) { it.Eng = interp.EngineWalker })
	if err != nil {
		return fmt.Errorf("walker reference: %w", err)
	}
	st.want = expectation{e.output, e.exit}
	ref := wholeOp(nil, r.cores, 0, st.text, "")
	if ref.err != nil {
		return fmt.Errorf("storeless reference compile: %w", ref.err)
	}
	st.refIR = ir.Print(ref.mod)
	if warm {
		st.storeDir = dir
		if c := wholeOp(nil, r.cores, 0, st.text, dir); c.err != nil {
			return fmt.Errorf("populating the store: %w", c.err)
		}
	}
	return nil
}

func compileWorkload(r *run, warm bool) error {
	st, err := setUp(r, func() (*wholeState, error) {
		st := &wholeState{}
		return st, st.setUpOnce(r, warm, r.newDir())
	}, nil)
	if err != nil {
		return err
	}

	// compile_cold gives every op an empty directory of its own, and none
	// is deleted (see run.tmp). Twelve runs of each module per round keep
	// a run to about ten ops, so to about 5 MB left behind.
	dir := st.storeDir
	comp := newCompiles(r, st.refIR, func(i int) compiled {
		if !warm {
			dir = r.newDir()
		}
		c := wholeOp(r.sp, r.cores, i, st.text, dir)
		if c.err == nil && warm {
			r.check(c.builds == 0, "warm compile op %d built %d PDGs, want 0", i, c.builds)
		}
		return c
	})
	orig := newRuns(r, "original", 12, 30, func() *ir.Module { return st.orig }, st.want, nil, nil)
	low := newRuns(r, "transformed", 12, 30, func() *ir.Module { return comp.last.mod }, st.want, nil, nil)
	r.interleave(&comp.phase, &orig.phase, &low.phase)
	if err := comp.report(r); err != nil {
		return err
	}
	if err := reportRuns(r, orig, low); err != nil {
		return err
	}
	r.count("core.pdg_builds", comp.last.builds)
	if r.traced {
		wholeLayers(r, st, comp.last, dir)
	}
	return nil
}

// wholeLayers fills the per-layer metrics of a compile workload: the
// stage spans of the ops above, then each layer called directly on a
// fresh parse of the same text.
func wholeLayers(r *run, st *wholeState, last compiled, storeDir string) {
	for metric, spanName := range map[string]string{
		"irtext.parse_ms": "irtext.parse", "core.precompute_ms": "core.precompute",
		"tool.perspective_ms": "tool.perspective", "tool.licm_ms": "tool.licm", "tool.dead_ms": "tool.dead",
	} {
		r.set(metric, r.timing(metric, r.sp.byName(spanName)))
	}
	// The verifier and the store flush run after each transforming stage:
	// per op, their cost is the sum of their spans.
	ops := float64(len(r.sp.byName("compile_op")))
	r.set("verify.quick_ms", sum(r.sp.byName("verify.quick"))/ops)
	r.set("abscache.flush_ms", sum(r.sp.byName("abscache.flush"))/ops)
	r.set("irtext.parse_mb_per_s", float64(len(st.text))/(1<<20)/(r.metrics["irtext.parse_ms"]/1000))
	r.set("bench.span_coverage", spanCoverage(r.sp, "compile_op"))
	r.count("ir.instrs_in", int64(last.instrsIn))
	r.count("ir.instrs_out", int64(last.mod.NumInstrs()))
	for _, rep := range last.reports {
		switch rep.Tool {
		case "licm":
			r.count("tool.licm_applied", rep.Metrics["hoisted"])
		case "dead":
			r.count("tool.dead_applied", rep.Metrics["removed"])
		}
	}
	if lookups := last.hits + last.misses; lookups > 0 {
		r.set("abscache.hit_ratio", float64(last.hits)/float64(lookups))
	}
	r.set("abscache.disk_kb", float64(dirBytes(storeDir))/1024)

	// The module as a value: print, fingerprint (the daemon's session
	// resolve), clone (the daemon's transform requests).
	r.set("ir.print_ms", medianOf(r, "ir.print", 5, func() { ir.Print(st.orig) }))
	r.set("ir.fingerprint_ms", medianOf(r, "ir.fingerprint", 5, func() { ir.ModuleFingerprint(st.orig) }))
	r.set("ir.clone_ms", medianOf(r, "ir.clone", 5, func() { ir.CloneModule(st.orig) }))

	// The abstractions with no store: alias solve, every PDG, every loop
	// bundle, each on a manager that has computed nothing else.
	m, err := irtext.Parse(st.text)
	if !r.check(err == nil, "parse for the layer calls: %v", err) {
		return
	}
	n := core.New(m, core.Options{Cores: r.cores})
	r.set("alias.solve_ms", ms(r.sp.timed("alias.solve", 0, 0, func() { n.PointsTo() })))
	var defined []*ir.Function
	for _, f := range m.Functions {
		if !f.IsDeclaration() {
			defined = append(defined, f)
		}
	}
	pdgMS := ms(r.sp.timed("core.pdg_cold", 0, 0, func() {
		for _, f := range defined {
			n.FunctionPDG(f)
		}
	}))
	r.set("core.pdg_cold_ms", pdgMS)
	r.set("core.pdg_cold_us_per_fn", pdgMS*1000/float64(len(defined)))
	loopCount := 0
	r.set("core.loop_bundle_ms", ms(r.sp.timed("core.loop_bundle", 0, 0, func() {
		for _, f := range defined {
			for _, ls := range n.LoopStructures(f) {
				n.Loop(ls)
				loopCount++
			}
		}
	})))
	r.count("loops.count", int64(loopCount))

	// The same compile with no store, for what the store costs or saves.
	r.set("core.nostore_compile_ms", medianOf(r, "core.nostore_compile", 3, func() {
		c := wholeOp(nil, r.cores, 0, st.text, "")
		r.check(c.err == nil, "storeless compile: %v", c.err)
	}))

	// The store read path alone: open, then every PDG decoded from disk.
	var store *abscache.Store
	r.set("abscache.open_ms", ms(r.sp.timed("abscache.open", 0, 0, func() { store, err = abscache.Open(storeDir, m, 0) })))
	if !r.check(err == nil, "opening the store: %v", err) {
		return
	}
	wn := core.New(m, core.Options{Cores: r.cores})
	wn.SetStore(store)
	decodeMS := ms(r.sp.timed("abscache.decode", 0, 0, func() {
		for _, f := range defined {
			wn.FunctionPDG(f)
		}
	}))
	builds, _, _ := wn.CacheStats()
	r.check(builds == 0, "decoding from the populated store built %d PDGs", builds)
	r.set("abscache.decode_us_per_fn", decodeMS*1000/float64(len(defined)))
}

func dirBytes(dir string) int64 {
	var total int64
	filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			if info, err := d.Info(); err == nil {
				total += info.Size()
			}
		}
		return nil
	})
	return total
}

package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"noelle/internal/core"
	"noelle/internal/interp"
	"noelle/internal/ir"
	"noelle/internal/minic"
	"noelle/internal/passes"
	"noelle/internal/tool"
	"noelle/internal/verify"
)

// The timed ops every workload is made of: interpreter runs, the front
// end, the tool pipeline, and the two kinds of phase built from them.

// execution is one interpreter run and what it observed.
type execution struct {
	wall   time.Duration
	output string
	exit   int64
	it     *interp.Interp
}

// execute runs m on a fresh interpreter: the compiled engine with C
// dispatch workers unless configure changes it.
func execute(m *ir.Module, cores int, configure func(*interp.Interp)) (execution, error) {
	it := interp.New(m)
	it.Eng, it.DispatchWorkers = interp.EngineCompiled, cores
	if configure != nil {
		configure(it)
	}
	start := time.Now()
	code, err := it.Run()
	return execution{time.Since(start), it.Output.String(), code, it}, err
}

func (e execution) matches(want expectation) bool {
	return e.output == want.Output && e.exit == want.Exit
}

// frontEnd is minic.Compile then passes.Optimize: text to the module the
// parallelizers start from.
func frontEnd(sp *spans, parent, op int, name, src string) (m *ir.Module, instrsIn int, err error) {
	sp.timed("minic.compile", parent, op, func() { m, err = minic.Compile(name, src) })
	if err != nil {
		return nil, 0, err
	}
	instrsIn = m.NumInstrs()
	sp.timed("passes.optimize", parent, op, func() { passes.Optimize(m) })
	return m, instrsIn, nil
}

// pipeline is tool.RunPipeline. On the traced pass it runs the same
// stages one at a time, as RunPipeline does, with a span around each
// layer call.
func pipeline(sp *spans, parent, op int, n *core.Noelle, names []string, opts tool.Options) ([]tool.Report, error) {
	ctx := context.Background()
	if sp == nil {
		reports, _, err := tool.RunPipeline(ctx, n, names, opts)
		return reports, err
	}
	tier, err := verify.ParseTier(opts.VerifyTier)
	if err != nil {
		return nil, err
	}
	if opts.PrecomputeWorkers > 0 {
		sp.timed("core.precompute", parent, op, func() { err = n.PrecomputePDGs(ctx, opts.PrecomputeWorkers) })
		if err != nil {
			return nil, err
		}
	}
	var reports []tool.Report
	for _, name := range names {
		t, ok := tool.Lookup(name)
		if !ok {
			return reports, fmt.Errorf("unknown tool %q", name)
		}
		var rep tool.Report
		sp.timed("tool."+name, parent, op, func() { rep, err = tool.Run(ctx, t, n, opts) })
		reports = append(reports, rep)
		if err != nil {
			return reports, fmt.Errorf("%s: %w", name, err)
		}
		if tool.TransformsWith(t, opts) {
			var vres *verify.Result
			sp.timed("verify."+tier.String(), parent, op, func() { vres = verify.Module(n.Mod, tier) })
			if err := vres.Err(); err != nil {
				return reports, fmt.Errorf("%s: transformed module rejected: %w", name, err)
			}
			n.InvalidateModule()
			sp.timed("abscache.flush", parent, op, func() { err = n.FlushStore() })
			if err != nil {
				return reports, err
			}
		}
	}
	sp.timed("abscache.flush", parent, op, func() { err = n.FlushStore() })
	return reports, err
}

// allocMB measures what op allocates, as the TotalAlloc delta across it.
func allocMB(op func()) float64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	op()
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
}

// compiled is the outcome of one compile op.
type compiled struct {
	mod      *ir.Module
	reports  []tool.Report
	wall     time.Duration
	allocMB  float64
	instrsIn int
	// builds, hits and misses are the manager's CacheStats after the op.
	builds, hits, misses int64
	err                  error
}

// compiles is the compile-op phase of a workload: one op per round. It
// checks that every op succeeds and prints wantIR (or, when that is
// empty, the same IR as the first op), and keeps the last op's outcome.
type compiles struct {
	phase
	last   compiled
	allocs []float64
}

func newCompiles(r *run, wantIR string, do func(i int) compiled) *compiles {
	c := &compiles{phase: phase{perRound: 1, floor: 5}}
	c.op = func(i int) (time.Duration, bool) {
		out := do(i + 1)
		if !r.check(out.err == nil, "compile op %d: %v", i+1, out.err) {
			return 0, false
		}
		text := ir.Print(out.mod)
		if wantIR == "" {
			wantIR = text
		}
		r.check(text == wantIR, "compile op %d did not print the reference IR", i+1)
		c.last = out
		c.allocs = append(c.allocs, out.allocMB)
		return out.wall, true
	}
	return c
}

// report sets the three compile metrics of a library workload.
func (c *compiles) report(r *run) error {
	if c.last.mod == nil {
		return fmt.Errorf("no compile op succeeded: %v", r.failures)
	}
	r.set("compile_ms", r.timing("compile_ms", c.walls))
	r.set("compile_alloc_mb", median(c.allocs))
	r.set("compile_per_s", float64(len(c.walls))/(sum(c.walls)/1000))
	return nil
}

// runs is a phase of fresh-interpreter runs of whatever module returns at
// the time, each checked against want.
type runs struct {
	phase
	last execution
}

func newRuns(r *run, what string, perRound, floor int, module func() *ir.Module, want expectation,
	configure func(*interp.Interp), after func(execution)) *runs {
	x := &runs{phase: phase{perRound: perRound, floor: floor}}
	x.op = func(i int) (time.Duration, bool) {
		m := module()
		if m == nil {
			return 0, false // no compile op has produced it yet
		}
		e, err := execute(m, r.cores, configure)
		if !r.check(err == nil && e.matches(want), "%s run %d: output %q exit %d err %v, want %q exit %d",
			what, i+1, e.output, e.exit, err, want.Output, want.Exit) {
			return 0, false
		}
		x.last = e
		if after != nil {
			after(e)
		}
		return e.wall, true
	}
	return x
}

// report sets the two run metrics and the step counts from the plain runs
// of the untransformed module and of the compile op's product.
func reportRuns(r *run, orig, low *runs) error {
	if orig.last.it == nil || low.last.it == nil {
		return fmt.Errorf("no run succeeded: %v", r.failures)
	}
	r.set("orig_run_ms", r.timing("orig_run_ms", orig.walls))
	r.set("run_ms", r.timing("run_ms", low.walls))
	r.count("interp.steps_orig", orig.last.it.Steps)
	r.count("interp.steps_lowered", low.last.it.Steps)
	if r.traced {
		stepsOrig := float64(orig.last.it.Steps)
		r.set("interp.compiled_ns_per_step", median(orig.walls)*1e6/stepsOrig)
		r.set("interp.step_inflation", float64(low.last.it.Steps)/stepsOrig)
		r.set("interp.e2e_speedup", median(orig.walls)/median(low.walls))
		r.set("interp.run_p90_ms", quantile(low.walls, 0.90))
	}
	return nil
}

// medianOf times fn several times and returns the median in ms.
func medianOf(r *run, name string, times int, fn func()) float64 {
	samples := make([]float64, times)
	for i := range samples {
		samples[i] = ms(r.sp.timed(name, 0, 0, fn))
	}
	return r.timing(name+"_ms", samples)
}

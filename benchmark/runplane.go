package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"time"

	"noelle/internal/bench"
	"noelle/internal/core"
	"noelle/internal/interp"
	"noelle/internal/ir"
	"noelle/internal/machine"
	"noelle/internal/obs"
	"noelle/internal/profiler"
	"noelle/internal/tool"
	"noelle/internal/tools/auto"
)

// expected.json holds what each program must print and return, derived by
// hand (testdata/reference.py) and never by the code under test.
//
//go:embed testdata/expected.json
var expectedJSON []byte

type expectation struct {
	Output string `json:"output"`
	Exit   int64  `json:"exit"`
}

func expectedFor(key string) (expectation, error) {
	var all map[string]expectation
	if err := json.Unmarshal(expectedJSON, &all); err != nil {
		return expectation{}, fmt.Errorf("testdata/expected.json: %w", err)
	}
	e, ok := all[key]
	if !ok {
		return e, fmt.Errorf("testdata/expected.json has no entry %q", key)
	}
	return e, nil
}

// runPlaneSpec is one of the four workloads that compile a program with a
// parallelizing technique and race the result against the original.
type runPlaneSpec struct {
	// module is the program's name, and its key in expected.json.
	module string
	source string
	// bundled is the internal/bench program the source must match.
	bundled func() (*ir.Module, error)
	tools   []string
	hotness float64
	// loweredKey is the report metric that counts the loops the
	// technique lowered.
	loweredKey string
	// comm says the lowering communicates through internal/queue.
	comm bool
}

var (
	doallMap = runPlaneSpec{
		module: "parallel-65536", source: parallelSource(65536),
		bundled: func() (*ir.Module, error) { return bench.ParallelProgram(65536) },
		tools:   []string{"doall"}, hotness: 0.01, loweredKey: "parallelized",
	}
	dswpPipe = runPlaneSpec{
		module: "pipeline-65536", source: pipelineSource(65536),
		bundled: func() (*ir.Module, error) { return bench.PipelineProgram(65536) },
		tools:   []string{"dswp"}, hotness: 0.2, loweredKey: "lowered", comm: true,
	}
	helixPipe = runPlaneSpec{
		module: "pipeline-65536", source: pipelineSource(65536),
		bundled: func() (*ir.Module, error) { return bench.PipelineProgram(65536) },
		tools:   []string{"helix"}, hotness: 0.2, loweredKey: "lowered", comm: true,
	}
	// auto's compile op replays the program once per loop it scores, so
	// it is 1.4 s at n=16384; n=32768 would not leave room for five
	// compile samples in a run.
	autoMix = runPlaneSpec{
		module: "auto_mix-16384", source: autoMixSource(16384),
		tools: []string{"auto"}, hotness: 0.05, loweredKey: "lowered", comm: true,
	}
)

func (w runPlaneSpec) coreOptions(r *run) core.Options {
	o := core.DefaultOptions()
	o.Cores, o.MinHotness = r.cores, w.hotness
	return o
}

func (w runPlaneSpec) toolOptions(r *run) tool.Options {
	o := tool.DefaultOptions()
	o.ExecutePlans, o.VerifyTier, o.DispatchWorkers = true, "comm", r.cores
	return o
}

// compile is the run-plane compile op, text in and verified module out:
// minic.Compile, passes.Optimize, profiler.Collect and Embed, then the
// technique through tool.RunPipeline at the comm verify tier.
func (w runPlaneSpec) compile(r *run, op int) compiled {
	var c compiled
	c.allocMB = allocMB(func() {
		id := r.sp.begin("compile_op", 0, op)
		start := time.Now()
		c.mod, c.instrsIn, c.err = frontEnd(r.sp, id, op, w.module, w.source)
		if c.err == nil {
			r.sp.timed("profiler.collect", id, op, func() {
				var prof *profiler.Profile
				if prof, c.err = profiler.Collect(c.mod); c.err == nil {
					prof.Embed()
				}
			})
		}
		if c.err == nil {
			n := core.New(c.mod, w.coreOptions(r))
			c.reports, c.err = pipeline(r.sp, id, op, n, w.tools, w.toolOptions(r))
		}
		c.wall = time.Since(start)
		r.sp.end(id)
	})
	return c
}

// runPlaneState is what a run-plane workload has after set-up, which is
// everything before its first timed op: the untransformed module compiled
// from the benchmark's own text and checked against the bundled program,
// and its run on the walker engine, whose output must agree with
// expected.json.
type runPlaneState struct {
	orig       *ir.Module
	want       expectation
	walkerWall time.Duration
	walkerStep int64
}

func (w runPlaneSpec) setUp(r *run) (runPlaneState, error) {
	return setUp(r, func() (runPlaneState, error) {
		var st runPlaneState
		var err error
		if st.want, err = expectedFor(w.module); err != nil {
			return st, err
		}
		if st.orig, _, err = frontEnd(nil, 0, 0, w.module, w.source); err != nil {
			return st, err
		}
		if w.bundled != nil {
			b, err := w.bundled()
			if err != nil {
				return st, err
			}
			r.check(ir.Print(b) == ir.Print(st.orig), "the benchmark's %s text no longer compiles to the bundled program", w.module)
		}
		e, err := execute(st.orig, r.cores, func(it *interp.Interp) { it.Eng = interp.EngineWalker })
		r.check(err == nil && e.matches(st.want), "walker reference: output %q exit %d err %v, want %q exit %d",
			e.output, e.exit, err, st.want.Output, st.want.Exit)
		st.walkerWall, st.walkerStep = e.wall, e.it.Steps
		return st, nil
	}, nil)
}

func runPlaneWorkload(w runPlaneSpec) func(r *run) error {
	return func(r *run) error {
		st, err := w.setUp(r)
		if err != nil {
			return err
		}
		comp := newCompiles(r, "", func(i int) compiled { return w.compile(r, i) })
		product := func() *ir.Module { return comp.last.mod }
		orig := newRuns(r, "original", 6, 30, func() *ir.Module { return st.orig }, st.want, nil, nil)
		low := newRuns(r, "lowered", 6, 30, product, st.want, nil, nil)
		phases := []*phase{&comp.phase, &orig.phase, &low.phase}

		// The traced pass adds -seq runs and runs with the interpreter's
		// own tracer attached, alternating with the plain ones.
		var tr *obs.Tracer
		lanes := map[string][]float64{}
		seq := newRuns(r, "-seq lowered", 1, 6, product, st.want, func(it *interp.Interp) { it.SeqDispatch = true }, nil)
		traced := newRuns(r, "traced lowered", 3, 15, product, st.want,
			func(it *interp.Interp) { tr = obs.NewTracer(); it.Tracer = tr },
			func(e execution) {
				r.count("interp.steps_lowered", e.it.Steps)
				commCounts(r, e.it)
				for name, v := range readLanes(tr, e.wall) {
					lanes[name] = append(lanes[name], v)
				}
			})
		if r.traced {
			phases = append(phases, &seq.phase, &traced.phase)
		}
		r.interleave(phases...)

		if err := comp.report(r); err != nil {
			return err
		}
		if err := reportRuns(r, orig, low); err != nil {
			return err
		}
		lowered := comp.last.reports[0].Metrics[w.loweredKey]
		r.check(lowered > 0, "%s lowered no loop: %s", w.tools[0], comp.last.reports[0])
		r.count("tool.loops_lowered", lowered)
		commCounts(r, low.last.it)
		if !w.comm {
			_, pushes, pops, waits, fires := low.last.it.CommStats()
			r.check(pushes+pops+waits+fires == 0, "the control workload issued %d communication ops", pushes+pops+waits+fires)
		}
		if r.traced {
			w.layers(r, st, comp.last, low, seq, traced, lanes)
		}
		return nil
	}
}

func commCounts(r *run, it *interp.Interp) {
	_, pushes, pops, waits, fires := it.CommStats()
	r.count("queue.pushes", pushes)
	r.count("queue.pops", pops)
	r.count("queue.waits", waits)
	r.count("queue.fires", fires)
}

// layers fills the per-layer metrics of a run-plane workload from the
// spans of the compile ops, the runs, and direct calls into the layers.
func (w runPlaneSpec) layers(r *run, st runPlaneState, last compiled, low, seq, traced *runs, lanes map[string][]float64) {
	for _, stage := range []string{"minic.compile", "passes.optimize", "profiler.collect"} {
		r.set(stage+"_ms", r.timing(stage+"_ms", r.sp.byName(stage)))
	}
	r.set("tool."+w.tools[0]+"_ms", r.timing("tool."+w.tools[0]+"_ms", r.sp.byName("tool."+w.tools[0])))
	r.set("verify.comm_ms", r.timing("verify.comm_ms", r.sp.byName("verify.comm")))
	r.set("bench.span_coverage", spanCoverage(r.sp, "compile_op"))
	r.count("ir.instrs_in", int64(last.instrsIn))
	r.count("ir.instrs_out", int64(last.mod.NumInstrs()))

	origMS, runMS := r.metrics["orig_run_ms"], r.metrics["run_ms"]
	r.set("profiler.ns_per_step", r.metrics["profiler.collect_ms"]*1e6/float64(r.counts["interp.steps_orig"]))
	r.set("interp.walker_ns_per_step", float64(st.walkerWall.Nanoseconds())/float64(st.walkerStep))
	r.set("queue.park_ms", parkMS(low.last.it))
	r.set("interp.seq_run_ms", r.timing("interp.seq_run_ms", seq.walls))
	r.set("interp.lowering_tax", median(seq.walls)/origMS)
	r.set("obs.trace_overhead_frac", r.timing("interp.traced_run_ms", traced.walls)/runMS-1)

	for name, perRun := range lanes {
		r.set(name, median(perRun))
	}

	modeled, err := w.modeledSpeedup(r)
	if r.check(err == nil, "modeled speedup: %v", err) {
		r.set("machine.modeled_speedup", modeled)
		r.set("machine.model_error", modeled/(origMS/runMS))
	}
	if w.comm {
		queueUnitCosts(r)
	}
}

func parkMS(it *interp.Interp) float64 {
	p := it.ParkStats()
	return float64(p.PushParkNS+p.PopParkNS+p.WaitParkNS) / 1e6
}

// readLanes reduces one finished tracer to the dispatch and lane metrics.
// A lane is one dispatch goroutine slot. Lane time is each dispatch's
// duration times its lanes; a fork's overhead is the lane time spent
// outside task spans, per task; a lane is utilised while it runs a task
// and is not inside a queue or signal op.
func readLanes(tr *obs.Tracer, wall time.Duration) map[string]float64 {
	comm := []obs.SpanKind{obs.SpanQueuePush, obs.SpanQueuePop, obs.SpanSignalWait}
	dispatches := tr.DispatchSpans()
	var forks, laneNS, taskNS, commNS, busiestComm int64
	var ops obs.Hist
	for _, lane := range tr.Summaries() {
		laneComm := lane.TotalNS(comm...)
		for _, k := range comm {
			ops.Merge(&lane.Kinds[k])
		}
		busiestComm = max(busiestComm, laneComm)
		if lane.Worker < 0 {
			continue // the root context is not a dispatch lane
		}
		forks += lane.Kinds[obs.SpanTask].Count
		taskNS += lane.Kinds[obs.SpanTask].TotalNS
		commNS += laneComm
		laneNS += dispatches[int64(lane.Group)].Dur
	}
	n := map[string]float64{
		"interp.dispatch_forks": float64(forks),
		"queue.op_p50_ns":       float64(ops.Quantile(0.50)),
		"queue.op_p95_ns":       float64(ops.Quantile(0.95)),
		"queue.blocked_share":   float64(busiestComm) / float64(wall.Nanoseconds()),
	}
	if forks > 0 {
		n["interp.dispatch_us_per_fork"] = float64(max(laneNS-taskNS, 0)) / float64(forks) / 1e3
	}
	if laneNS > 0 {
		n["interp.lane_util_pct"] = 100 * float64(taskNS-commNS) / float64(laneNS)
	}
	return n
}

// modeledSpeedup is the whole-program speedup the machine model predicts
// for this workload's technique: each hot loop's plan priced against one
// training replay, as auto prices candidates, folded over the profile's
// total cycles.
func (w runPlaneSpec) modeledSpeedup(r *run) (float64, error) {
	m, _, err := frontEnd(nil, 0, 0, w.module, w.source)
	if err != nil {
		return 0, err
	}
	prof, err := profiler.Collect(m)
	if err != nil {
		return 0, err
	}
	prof.Embed()
	n := core.New(m, w.coreOptions(r))
	opts := w.toolOptions(r)
	var seqs, pars []int64
	if w.tools[0] == "auto" {
		opts.ExecutePlans = false
		res, err := auto.Run(context.Background(), n, opts)
		if err != nil {
			return 0, err
		}
		for _, sel := range res.Selections {
			for _, c := range sel.Candidates {
				if c.Technique == sel.Winner {
					seqs, pars = append(seqs, c.Seq), append(pars, c.Par)
				}
			}
		}
	} else {
		planner, ok := tool.LookupPlanner(w.tools[0])
		if !ok {
			return 0, fmt.Errorf("no planner for %q", w.tools[0])
		}
		for _, ls := range n.HotLoops() {
			plan, err := planner.PlanLoop(n, ls, opts)
			if err != nil {
				continue // the technique passes over this loop
			}
			segOf, numSegs := plan.Segments()
			invs, err := machine.AttributeLoopCosts(m, ls.Nat, segOf, numSegs)
			if err != nil {
				return 0, err
			}
			seqs = append(seqs, machine.SequentialCycles(invs))
			pars = append(pars, machine.SimulateAll(invs, plan.EstimateInvocation))
		}
	}
	return machine.Speedup(prof.TotalCycles, seqs, pars), nil
}

package interp_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"
	"time"

	"noelle/internal/interp"
	"noelle/internal/obs"
)

// TestTracedRunMatchesUntraced is the observer-effect contract: attaching
// a tracer must not change a parallel run's results — output, memory,
// and counters stay identical — while the trace itself accounts for the
// run's communication (500 pushes and 500 pops of the pipeline module).
func TestTracedRunMatchesUntraced(t *testing.T) {
	plain := interp.New(parse(t, pipelineSrc))
	if _, err := plain.Run(); err != nil {
		t.Fatalf("untraced run: %v", err)
	}

	traced := interp.New(parse(t, pipelineSrc))
	traced.Tracer = obs.NewTracer()
	if _, err := traced.Run(); err != nil {
		t.Fatalf("traced run: %v", err)
	}

	if plain.Output.String() != traced.Output.String() {
		t.Errorf("output diverged: %q vs %q", plain.Output.String(), traced.Output.String())
	}
	if plain.MemoryFingerprint() != traced.MemoryFingerprint() {
		t.Error("memory fingerprints diverged under tracing")
	}
	if plain.Steps != traced.Steps || plain.Cycles != traced.Cycles {
		t.Errorf("counters diverged: untraced (%d, %d), traced (%d, %d)",
			plain.Steps, plain.Cycles, traced.Steps, traced.Cycles)
	}

	var pushes, pops, tasks int64
	for _, s := range traced.Tracer.Summaries() {
		pushes += s.Kinds[obs.SpanQueuePush].Count
		pops += s.Kinds[obs.SpanQueuePop].Count
		tasks += s.Kinds[obs.SpanTask].Count
	}
	if pushes != 500 || pops != 500 {
		t.Errorf("trace saw %d pushes / %d pops, want 500 each", pushes, pops)
	}
	if tasks != 2 {
		t.Errorf("trace saw %d task spans, want 2", tasks)
	}
	if ds := traced.Tracer.DispatchSpans(); len(ds) != 1 {
		t.Errorf("trace saw %d dispatches, want 1", len(ds))
	}
}

// TestTracedWorkerStats checks the per-lane stat retention satellite:
// a parallel dispatch records one row per claiming lane, the claims sum
// to the fan-out, and the lanes' steps account for all worker execution
// (root steps = total steps - worker steps; workers executed @task).
func TestTracedWorkerStats(t *testing.T) {
	it := interp.New(parse(t, pipelineSrc))
	if _, err := it.Run(); err != nil {
		t.Fatal(err)
	}
	stats := it.WorkerStats()
	if len(stats) == 0 {
		t.Fatal("parallel run retained no worker stats")
	}
	var claims int
	var laneSteps int64
	for _, st := range stats {
		if st.Dispatch != 1 {
			t.Errorf("stat has dispatch seq %d, want 1", st.Dispatch)
		}
		claims += st.Claims
		laneSteps += st.Steps
	}
	if claims != 2 {
		t.Errorf("lanes claimed %d workers, want 2", claims)
	}
	if laneSteps <= 0 || laneSteps >= it.Steps {
		t.Errorf("lane steps %d out of range (run total %d)", laneSteps, it.Steps)
	}
}

// TestWorkerStatLines: the one rendering of per-lane stats (noelle-bin's
// footer, carat's report) prints a line per lane and cuts off after 32
// lanes with a count of the rest. Forty two-worker dispatches record at
// least forty lanes.
func TestWorkerStatLines(t *testing.T) {
	src := strings.NewReplacer(
		"  call void @noelle_dispatch(@task, %env, 4)\n",
		"  br again\nagain:\n  %k = phi i64 [ 0, entry ], [ %knext, again ]\n"+
			"  call void @noelle_dispatch(@task, %env, 2)\n"+
			"  %knext = add %k, 1\n  %more = lt %knext, 40\n  condbr %more, again, after\nafter:\n",
	).Replace(dispatchSrc)
	it := interp.New(parse(t, src))
	it.DispatchWorkers = 2
	if _, err := it.Run(); err != nil {
		t.Fatal(err)
	}
	stats, lines := it.WorkerStats(), it.WorkerStatLines()
	if len(stats) < 40 || len(lines) != 33 {
		t.Fatalf("%d lanes rendered as %d lines, want at least 40 as 33", len(stats), len(lines))
	}
	for i, ws := range stats[:32] {
		want := fmt.Sprintf("worker d%d.w%d: claims=%d steps=%d cycles=%d", ws.Dispatch, ws.Lane, ws.Claims, ws.Steps, ws.Cycles)
		if lines[i] != want {
			t.Errorf("line %d = %q, want %q", i, lines[i], want)
		}
	}
	if want := fmt.Sprintf("worker stats: ... %d more lanes", len(stats)-32); lines[32] != want {
		t.Errorf("last line = %q, want %q", lines[32], want)
	}
}

// TestTracedParkStats: a producer that really parks shows up in the
// runtime's blocking profile, count and time. Waits spin before they
// park, so a capacity-1 queue alone no longer forces one: the consumer is
// held back, by an extern of the test's own, until the producer's second
// push has gone to sleep on the full queue.
func TestTracedParkStats(t *testing.T) {
	src := strings.NewReplacer(
		"declare @print_i64", "declare @hold : fn() void\ndeclare @print_i64",
		"condbr %isprod, produce, consume", "condbr %isprod, produce, held",
		"consume:\n", "held:\n  call void @hold()\n  br consume\nconsume:\n",
		"[ 0, entry ], [ %jnext, consume ]", "[ 0, held ], [ %jnext, consume ]",
		"[ 0, entry ], [ %snext, consume ]", "[ 0, held ], [ %snext, consume ]",
	).Replace(pipelineSrc)
	it := interp.New(parse(t, src))
	it.QueueCap = 1
	// Both stages must be resident for backpressure to exist (on a
	// single-core box the default lane cap would serialize them).
	it.DispatchWorkers = 2
	it.RegisterExternArity("hold", 0, func(w *interp.Interp, _ []uint64) (uint64, error) {
		for deadline := time.Now().Add(10 * time.Second); w.ParkStats().PushParks == 0; runtime.Gosched() {
			if time.Now().After(deadline) {
				return 0, errors.New("the producer never parked on the full queue")
			}
		}
		return 0, nil
	})
	if _, err := it.Run(); err != nil {
		t.Fatal(err)
	}
	if got := it.Output.String(); got != "374250\n" {
		t.Errorf("output %q", got)
	}
	if ps := it.ParkStats(); ps.PushParks == 0 || ps.PushParkNS <= 0 {
		t.Errorf("a producer parked on a full queue, yet the profile reads %+v", ps)
	}
}

// TestTracedChromeExport drives a real traced run end to end into the
// Chrome exporter and checks the structural contract on live data.
func TestTracedChromeExport(t *testing.T) {
	it := interp.New(parse(t, pipelineSrc))
	it.Tracer = obs.NewTracer()
	it.Tracer.SpanThreshold = 0 // keep every span: stress the exporter
	if _, err := it.Run(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := obs.WriteChromeTrace(&buf, obs.TraceLeg{Name: "pipeline", Tracer: it.Tracer}); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Ph  string   `json:"ph"`
			Pid int      `json:"pid"`
			Tid int      `json:"tid"`
			Ts  *float64 `json:"ts"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	last := map[int]float64{}
	spans := 0
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "X" {
			continue
		}
		spans++
		if ev.Ts == nil || *ev.Ts < 0 {
			t.Fatalf("bad event: %+v", ev)
		}
		if *ev.Ts < last[ev.Tid] {
			t.Fatalf("timestamps regress on tid %d", ev.Tid)
		}
		last[ev.Tid] = *ev.Ts
	}
	// 500 pushes + 500 pops + 2 tasks + 1 dispatch at threshold 0.
	if spans < 1003 {
		t.Errorf("exported %d spans, want >= 1003", spans)
	}
}

// TestTracedConcurrentDispatchStress hammers the tracer from concurrent
// dispatch lanes (run under -race in CI): repeated traced runs of both
// communication-heavy modules, sharing nothing but the obs package.
func TestTracedConcurrentDispatchStress(t *testing.T) {
	for i := 0; i < 3; i++ {
		it := interp.New(parse(t, pipelineSrc))
		it.Tracer = obs.NewTracer()
		if _, err := it.Run(); err != nil {
			t.Fatal(err)
		}
		if got := it.Output.String(); got != "374250\n" {
			t.Fatalf("iteration %d: output %q", i, got)
		}
		reg := obs.NewRegistry()
		it.Tracer.MergeInto(reg)
		if reg.Counter("trace.lanes") < 2 {
			t.Fatalf("iteration %d: fewer than 2 traced lanes", i)
		}
	}
}

// TestAttributionIdentity pins obs.AttributeTrace on a real pipeline:
// over a traced run of the DSWP-lowered pipeline benchmark the four
// terms account for the whole measured wall-clock, and the effective
// lane count never exceeds what the machine can run at once.
func TestAttributionIdentity(t *testing.T) {
	it := interp.New(pipelineLower(t, "dswp", 256, 3))
	it.DispatchWorkers = 3
	it.Tracer = obs.NewTracer()
	start := time.Now()
	if _, err := it.Run(); err != nil {
		t.Fatal(err)
	}
	wall := time.Since(start)
	parks := it.ParkStats()
	a := obs.AttributeTrace(it.Tracer, wall, parks.PushParkNS, parks.PopParkNS, parks.WaitParkNS)

	sum := a.SerialMS + a.RunCritMS + a.BlockedCritMS + a.OverheadMS
	// The dispatch spans lie inside [start, start+wall], so the identity
	// is exact up to float rounding; 1µs is far above that and far below
	// any real term.
	if math.Abs(sum-a.WallMS) > 1e-3 {
		t.Errorf("serial %.4f + run_crit %.4f + blocked_crit %.4f + overhead %.4f = %.4fms, want wall %.4fms",
			a.SerialMS, a.RunCritMS, a.BlockedCritMS, a.OverheadMS, sum, a.WallMS)
	}
	if a.RunCritMS <= 0 || a.BlockedCritMS <= 0 {
		t.Errorf("a pipeline's critical lane both runs and communicates; got run_crit %.4fms, blocked_crit %.4fms",
			a.RunCritMS, a.BlockedCritMS)
	}
	if a.EffLanes < 1 || a.EffLanes > runtime.GOMAXPROCS(0) {
		t.Errorf("EffLanes = %d, want within [1, GOMAXPROCS=%d]", a.EffLanes, runtime.GOMAXPROCS(0))
	}
	if len(a.Lanes) == 0 || len(a.Stages) == 0 {
		t.Errorf("breakdowns missing: %d lanes, %d stages", len(a.Lanes), len(a.Stages))
	}
	if !strings.Contains(a.Format(), "where did the time go") {
		t.Errorf("footer lost its heading:\n%s", a.Format())
	}
}

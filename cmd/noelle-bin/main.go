// noelle-bin produces the runnable artifact from an IR file and executes
// it (paper Table 2). The backend of this reproduction is the IR
// interpreter, so "generating the binary" means validating the module,
// honouring its embedded link options, and running it; -emit writes the
// final IR image instead of executing.
//
// Modules produced by the parallelizing tools contain noelle_dispatch
// calls; those run their task workers concurrently on real cores by
// default. -seq falls back to sequential worker-order execution (for
// debugging), and -workers caps how many workers run simultaneously.
// Pipelined modules (dswp/helix -exec-plans) also create queues and
// signals through the communication runtime; -queue-cap overrides the
// queue capacity baked into the module (backpressure only — results are
// identical at any capacity). -trace exports the run's
// dispatch/task/communication spans as a Chrome trace-event JSON
// timeline, and -metrics prints the aggregated span histograms followed
// by the "where did the time go" attribution of the run's wall-clock
// (serial + critical-lane run + critical-lane blocked + dispatch
// overhead, plus per-lane and per-stage utilization).
// -engine selects the interpreter execution tier: "compiled" (the
// default fast path: functions lowered once to pre-bound ops) or
// "walker" (the instruction-walking reference; both tiers produce
// byte-identical output and counters).
//
// Usage: noelle-bin [-seq] [-workers N] [-queue-cap N] [-engine walker|compiled]
//
//	[-trace out.json] [-metrics] [-emit out.nir] whole.nir
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"noelle/internal/interp"
	"noelle/internal/ir"
	"noelle/internal/obs"
	"noelle/internal/toolio"
)

func main() {
	emit := flag.String("emit", "", "write the executable IR image instead of running")
	seq := flag.Bool("seq", false, "run dispatched tasks sequentially (debugging fallback)")
	workers := flag.Int("workers", 0, "cap on simultaneously-running dispatch workers (0 = GOMAXPROCS)")
	queueCap := flag.Int("queue-cap", 0, "override the capacity of the module's communication queues (0 = respect the module)")
	engine := flag.String("engine", "", "interpreter execution tier: walker|compiled (default: process default, see NOELLE_ENGINE)")
	trace := flag.String("trace", "", "export the run as a Chrome trace-event JSON timeline (chrome://tracing, Perfetto)")
	metrics := flag.Bool("metrics", false, "print the run's span metrics (counts, totals, p50/p95/p99) and wall-clock attribution to stderr")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: noelle-bin [-seq] [-workers N] [-queue-cap N] [-engine walker|compiled] [-trace out.json] [-metrics] [-emit out.nir] whole.nir")
		os.Exit(2)
	}
	eng, err := interp.ParseEngine(*engine)
	if err != nil {
		toolio.Fatal(err)
	}
	m, err := toolio.ReadModule(flag.Arg(0))
	if err != nil {
		toolio.Fatal(err)
	}
	if err := ir.Verify(m); err != nil {
		toolio.Fatal(err)
	}
	for _, opt := range m.LinkOptions {
		fmt.Fprintf(os.Stderr, "link option: %s\n", opt)
	}
	if *emit != "" {
		if err := toolio.WriteModule(m, *emit); err != nil {
			toolio.Fatal(err)
		}
		return
	}
	it := interp.New(m)
	it.SeqDispatch = *seq
	it.DispatchWorkers = *workers
	it.QueueCap = *queueCap
	it.Eng = eng
	if *trace != "" || *metrics {
		it.Tracer = obs.NewTracer()
	}
	start := time.Now()
	code, err := it.Run()
	wall := time.Since(start)
	if err != nil {
		toolio.Fatal(err)
	}
	fmt.Print(it.Output.String())
	fmt.Fprintf(os.Stderr, "exit=%d cycles=%d steps=%d engine=%s\n", code, it.Cycles, it.Steps, it.Engine())
	// Per-lane stats surface worker skew the post-barrier merge hides.
	// Bounded: a dispatch-per-iteration module would otherwise flood the
	// footer (the full data is in -trace).
	const maxWorkerLines = 32
	stats := it.WorkerStats()
	for i, ws := range stats {
		if i == maxWorkerLines {
			fmt.Fprintf(os.Stderr, "worker stats: ... %d more lanes\n", len(stats)-i)
			break
		}
		fmt.Fprintf(os.Stderr, "worker d%d.w%d: claims=%d steps=%d cycles=%d\n",
			ws.Dispatch, ws.Lane, ws.Claims, ws.Steps, ws.Cycles)
	}
	if *metrics {
		reg := obs.NewRegistry()
		it.Tracer.MergeInto(reg)
		fmt.Fprint(os.Stderr, reg.Format())
		parks := it.ParkStats()
		fmt.Fprint(os.Stderr, obs.AttributeTrace(it.Tracer, wall, parks.PushParkNS, parks.PopParkNS, parks.WaitParkNS).Format())
	}
	if *trace != "" {
		if err := toolio.WriteTraceFile(*trace, obs.TraceLeg{Name: "noelle-bin", Tracer: it.Tracer}); err != nil {
			toolio.Fatal(err)
		}
	}
	os.Exit(int(code & 0xff))
}

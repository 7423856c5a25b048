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
	execFlags := toolio.RegisterExecFlags(flag.CommandLine, "workers", true)
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: noelle-bin [-seq] [-workers N] [-queue-cap N] [-engine walker|compiled] [-trace out.json] [-metrics] [-emit out.nir] whole.nir")
		os.Exit(2)
	}
	cfg, err := execFlags.Config()
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
	it.ExecConfig = cfg
	start := time.Now()
	code, err := it.Run()
	wall := time.Since(start)
	if err != nil {
		toolio.Fatal(err)
	}
	fmt.Print(it.Output.String())
	fmt.Fprintf(os.Stderr, "exit=%d cycles=%d steps=%d engine=%s\n", code, it.Cycles, it.Steps, it.Engine())
	// Per-lane stats surface worker skew the post-barrier merge hides.
	for _, line := range it.WorkerStatLines() {
		fmt.Fprintln(os.Stderr, line)
	}
	if execFlags.Metrics {
		reg := obs.NewRegistry()
		it.Tracer.MergeInto(reg)
		fmt.Fprint(os.Stderr, reg.Format())
		parks := it.ParkStats()
		fmt.Fprint(os.Stderr, obs.AttributeTrace(it.Tracer, wall, parks.PushParkNS, parks.PopParkNS, parks.WaitParkNS).Format())
	}
	if execFlags.Trace != "" {
		if err := toolio.WriteTraceFile(execFlags.Trace, obs.TraceLeg{Name: "noelle-bin", Tracer: it.Tracer}); err != nil {
			toolio.Fatal(err)
		}
	}
	os.Exit(int(code & 0xff))
}

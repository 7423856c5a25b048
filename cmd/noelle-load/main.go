// noelle-load loads the NOELLE layer over an IR file — without computing
// any abstraction — and runs the requested custom tools against it (paper
// Table 2: custom tools invoke NOELLE's empowered pass pipeline through
// noelle-load rather than through a bare opt). Tools are resolved through
// the registry (internal/tool); -tools runs a pipeline of stages over one
// manager, with cached abstractions invalidated after every transforming
// stage. Function PDGs are precomputed across a worker pool before the
// first stage (the paper's parallel abstraction computation).
//
// Usage: noelle-load -tools NAME[,NAME...] [-o out.nir] [-cores N]
//
//	[-budget N] [-hot F] [-workers N] whole.nir
//
// Run noelle-load -list for the registered tools. The auto tool
// (-tools auto) composes the parallelizers: per hot loop it scores
// every registered technique planner's plan with the machine cost model
// and — under -exec-plans — lowers the predicted-fastest, with
// graceful fallback; see cmd/README.md and
// examples/parallelize/README.md.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"

	"noelle/internal/core"
	"noelle/internal/interp"
	"noelle/internal/obs"
	"noelle/internal/tool"
	"noelle/internal/toolio"
	"noelle/internal/verify"

	// Link every registered custom tool into the driver.
	_ "noelle/internal/tools"
)

func main() {
	toolFlag := flag.String("tool", "", "custom tool to run (single-stage alias for -tools)")
	toolsFlag := flag.String("tools", "", "comma-separated pipeline of custom tools (e.g. licm,dead,doall)")
	list := flag.Bool("list", false, "list the registered tools and exit")
	out := flag.String("o", "-", "output IR file")
	cores := flag.Int("cores", core.DefaultOptions().Cores, "worker count for parallelizers")
	budget := flag.Int64("budget", tool.DefaultOptions().Budget, "COOS callback budget (cycles)")
	hot := flag.Float64("hot", core.DefaultOptions().MinHotness, "minimum loop hotness tools consider (fraction of execution)")
	optimize := flag.Bool("optimize", true, "enable tools' optional optimization stages (e.g. HELIX's SCD header shrinking)")
	workers := flag.Int("workers", runtime.NumCPU(), "worker pool size for the parallel PDG precompute (0 keeps the layer fully demand-driven; tools that never request a PDG then pay nothing)")
	cacheDir := flag.String("cache-dir", "", "persistent abstraction store directory: PDGs are loaded by structural fingerprint instead of rebuilt, and new builds are persisted for later runs (inspect with noelle-cache)")
	seq := flag.Bool("seq", false, "run dispatched tasks sequentially when a tool executes the module (the parallel runtime's debugging fallback)")
	dispatchWorkers := flag.Int("dispatch-workers", 0, "cap on simultaneously-running dispatch workers when a tool executes the module (0 = GOMAXPROCS)")
	execPlans := flag.Bool("exec-plans", false, "lower dswp/helix/auto plans to executable form: stage/iteration tasks communicating over the queue+signal runtime, launched through noelle_dispatch")
	queueCap := flag.Int("queue-cap", 0, "capacity of the communication queues generated by -exec-plans (0 = default; shapes backpressure only, never results)")
	verifyTier := flag.String("verify", "quick", "static verification tier run after each transforming stage: quick (structure+SSA), ssa (+extern contracts), or comm (+concurrency-protocol linter); rejections exit with code 3")
	engine := flag.String("engine", "", "interpreter execution tier when a tool executes the module: walker|compiled (default: process default, see NOELLE_ENGINE)")
	trace := flag.String("trace", "", "export tool-driven module executions as a Chrome trace-event JSON timeline (chrome://tracing, Perfetto)")
	metrics := flag.Bool("metrics", false, "print span metrics of tool-driven module executions (counts, totals, p50/p95/p99) to stderr")
	cpuprofile := flag.String("cpuprofile", "", "write a pprof CPU profile of the pipeline to this file")
	memprofile := flag.String("memprofile", "", "write a pprof heap profile (post-pipeline, GC-settled) to this file")
	flag.Parse()

	if *list {
		for _, t := range tool.Tools() {
			fmt.Printf("  %-12s %s\n", t.Name(), t.Describe())
		}
		return
	}

	names := splitTools(*toolsFlag)
	if *toolFlag != "" {
		names = append(names, *toolFlag)
	}
	if flag.NArg() != 1 || len(names) == 0 {
		fmt.Fprintln(os.Stderr, "usage: noelle-load -tools NAME[,NAME...] whole.nir")
		fmt.Fprintf(os.Stderr, "tools: %s\n", strings.Join(tool.Names(), ", "))
		os.Exit(2)
	}

	if _, err := interp.ParseEngine(*engine); err != nil {
		toolio.Fatal(err)
	}

	m, err := toolio.ReadModule(flag.Arg(0))
	if err != nil {
		toolio.Fatal(err)
	}
	opts := core.DefaultOptions()
	opts.Cores = *cores
	opts.MinHotness = *hot
	opts.CacheDir = *cacheDir
	n := core.New(m, opts)
	if err := n.StoreErr(); err != nil {
		fmt.Fprintf(os.Stderr, "warning: abstraction store disabled: %v\n", err)
	}

	topts := tool.DefaultOptions()
	topts.Budget = *budget
	topts.Optimize = *optimize
	topts.PrecomputeWorkers = *workers
	topts.SeqDispatch = *seq
	topts.DispatchWorkers = *dispatchWorkers
	topts.ExecutePlans = *execPlans
	topts.QueueCapacity = *queueCap
	topts.VerifyTier = *verifyTier
	topts.Engine = *engine
	if *trace != "" || *metrics {
		topts.Tracer = obs.NewTracer()
	}

	stopProfiles, perr := toolio.StartProfiles(*cpuprofile, *memprofile)
	if perr != nil {
		toolio.Fatal(perr)
	}
	reports, vstats, err := tool.RunPipeline(context.Background(), n, names, topts)
	stopProfiles()
	for _, rep := range reports {
		// The canonical rendering is shared with the compile service's
		// client, so `noelle-serve` reports diff cleanly against this.
		rep.Fprint(os.Stderr)
	}
	if vstats.Stages > 0 {
		fmt.Fprintln(os.Stderr, vstats)
	}
	if *metrics {
		reg := obs.NewRegistry()
		topts.Tracer.MergeInto(reg)
		fmt.Fprint(os.Stderr, reg.Format())
	}
	if *trace != "" {
		if terr := toolio.WriteTraceFile(*trace, obs.TraceLeg{Name: "noelle-load", Tracer: topts.Tracer}); terr != nil {
			fmt.Fprintf(os.Stderr, "warning: writing trace: %v\n", terr)
		}
	}
	if *cacheDir != "" {
		builds, hits, misses := n.CacheStats()
		fmt.Fprintf(os.Stderr, "abstraction store: %d PDGs built, %d loaded warm, %d misses\n", builds, hits, misses)
		if cerr := n.CloseStore(); cerr != nil {
			fmt.Fprintf(os.Stderr, "warning: closing abstraction store: %v\n", cerr)
		}
	}
	if err != nil {
		// A verifier rejection gets its own exit code so campaign
		// harnesses can tell "the tool miscompiled" from "the tool broke".
		var verr *verify.Error
		if errors.As(err, &verr) {
			fmt.Fprintln(os.Stderr, "error:", err)
			os.Exit(3)
		}
		toolio.Fatal(err)
	}
	if err := toolio.WriteModule(m, *out); err != nil {
		toolio.Fatal(err)
	}
}

// splitTools parses the -tools value, tolerating empty segments.
func splitTools(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

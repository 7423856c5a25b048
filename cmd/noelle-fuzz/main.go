// noelle-fuzz is the differential fuzzing and adversarial campaign
// driver over the minic/IR surface. It generates seeded, deterministic
// random programs whose hot loops are plausible DOALL/DSWP/HELIX
// candidates, sweeps every parallelization technique plus the auto
// orchestrator across a matrix of cores × queue capacities, and judges
// every cell with the repo's full oracle stack (irtext round-trip,
// walker-vs-compiled engine differential, parallel-vs-seq dispatch
// byte-identity, semantic preservation, comm-tier static verification).
// Any divergence, panic, verifier rejection, or watchdog-detected
// deadlock is reported with a replayable seed and a minimized .nir
// reproducer.
//
// Legs:
//
//	campaign  the full matrix sweep (default)
//	stress    concurrent dispatches over one shared lowering, both
//	          engines at once (run under -race)
//	faults    step-budget exhaustion mid-pipeline and aborted-worker
//	          injection; every run must terminate with the right error
//	inject    seeds each known DSWP and HELIX miscompile (dropped token
//	          push, chunk-size mismatch, swapped wait/fire, ...) into a
//	          real lowering of its technique and requires the oracle
//	          stack to name it; exits 0 only if every one is caught
//	order     lowers with doall and auto, then runs -seq with every doall
//	          dispatch's workers reversed and requires the in-order
//	          output, exit value, global fingerprint and counters
//	all       campaign + stress + faults + order + inject
//
// Usage: noelle-fuzz [-leg L] [-seeds N] [-seed-base S] [-duration D]
//
//	[-matrix "tech=...;cores=...;qcap=..."] [-blocks N] [-arrays N]
//	[-arraylen N] [-hot H] [-timeout D] [-out DIR] [-parallel N] [-v]
//
// The exit status is 0 only when every leg ran clean (for the inject
// leg: only when every injected miscompile was caught).
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"noelle/internal/fuzz"
)

func main() {
	leg := flag.String("leg", "campaign", "campaign|stress|faults|inject|order|all")
	seeds := flag.Int("seeds", 50, "number of seeds to judge (per leg)")
	seedBase := flag.Int64("seed-base", 1, "first seed (campaign seeds are seed-base..seed-base+seeds-1)")
	duration := flag.Duration("duration", 0, "keep generating fresh seeds until this budget elapses (overrides -seeds)")
	matrixSpec := flag.String("matrix", "", `matrix spec, e.g. "tech=doall,dswp;cores=2,4;qcap=0,8" (empty = default)`)
	blocks := flag.Int("blocks", 0, "loop blocks per generated program (0 = generator default)")
	arrays := flag.Int("arrays", 0, "global arrays per generated program (0 = generator default)")
	arrayLen := flag.Int("arraylen", 0, "array length / trip count scale (0 = generator default)")
	hot := flag.Float64("hot", 0, "MinHotness threshold handed to the manager (0 = every loop is a candidate)")
	timeout := flag.Duration("timeout", 30*time.Second, "watchdog budget per pipeline run or execution")
	out := flag.String("out", "fuzz-failures", "directory for minimized .nir reproducers")
	parallel := flag.Int("parallel", 1, "seeds judged concurrently (campaign leg)")
	goroutines := flag.Int("stress-goroutines", 6, "concurrent dispatchers per seed (stress leg)")
	verbose := flag.Bool("v", false, "per-seed progress on stderr")
	flag.Parse()

	matrix, err := fuzz.ParseMatrix(*matrixSpec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(2)
	}
	cfg := fuzz.Config{
		Gen:        fuzz.GenConfig{Blocks: *blocks, Arrays: *arrays, ArrayLen: *arrayLen},
		Matrix:     matrix,
		MinHotness: *hot,
		Timeout:    *timeout,
		OutDir:     *out,
		Parallel:   *parallel,
	}
	if *verbose {
		cfg.Verbose = os.Stderr
	}
	c := fuzz.New(cfg)

	// The seeded legs, in the order -leg all runs them; inject is last.
	seeded := []struct {
		name string
		run  func([]int64) fuzz.Stats
	}{
		{"campaign", c.RunSeeds},
		{"stress", func(s []int64) fuzz.Stats { return c.Stress(s, *goroutines, 2) }},
		{"faults", c.Faults},
		{"order", c.Order},
	}
	runs := func(name string) bool { return *leg == name || *leg == "all" }
	known := runs("inject")
	for _, l := range seeded {
		known = known || runs(l.name)
	}
	if !known {
		fmt.Fprintf(os.Stderr, "error: unknown leg %q (want campaign|stress|faults|inject|order|all)\n", *leg)
		os.Exit(2)
	}

	failed := false
	report := func(name string, st fuzz.Stats) {
		fmt.Printf("%s: %s\n", name, st.Summary())
		for _, f := range st.Failures {
			fmt.Printf("%s FAILURE: %s\n", name, f)
		}
		if len(st.Failures) > 0 {
			failed = true
		}
	}

	// With -duration the seed stream is open-ended: batches of seeds are
	// judged until the budget elapses, so longer budgets simply explore
	// more of the (deterministic, replayable) seed space.
	seedBatches := func(yield func([]int64) bool) {
		if *duration <= 0 {
			yield(seedRange(*seedBase, *seeds))
			return
		}
		const batch = 10
		deadline := time.Now().Add(*duration)
		for next := *seedBase; time.Now().Before(deadline); next += batch {
			if !yield(seedRange(next, batch)) {
				return
			}
		}
	}

	for _, l := range seeded {
		if !runs(l.name) {
			continue
		}
		var st fuzz.Stats
		for batch := range seedBatches {
			st.Merge(l.run(batch))
		}
		report(l.name, st)
	}
	if runs("inject") {
		caught, err := c.InjectMiscompiles(*seeds)
		for _, f := range caught {
			fmt.Printf("inject: caught as designed — %s\n", f)
		}
		if err != nil {
			fmt.Printf("inject: MISSED — %v\n", err)
			failed = true
		}
	}

	if failed {
		os.Exit(1)
	}
}

func seedRange(base int64, n int) []int64 {
	s := make([]int64, n)
	for i := range s {
		s[i] = base + int64(i)
	}
	return s
}

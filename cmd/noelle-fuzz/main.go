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
//	all       campaign + stress + faults + inject
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
	leg := flag.String("leg", "campaign", "campaign|stress|faults|inject|all")
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

	runLegs := map[string]bool{}
	switch *leg {
	case "campaign", "stress", "faults", "inject":
		runLegs[*leg] = true
	case "all":
		runLegs["campaign"], runLegs["stress"], runLegs["faults"], runLegs["inject"] = true, true, true, true
	default:
		fmt.Fprintf(os.Stderr, "error: unknown leg %q (want campaign|stress|faults|inject|all)\n", *leg)
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
	seedBatches := func() func() []int64 {
		next := *seedBase
		if *duration <= 0 {
			done := false
			return func() []int64 {
				if done {
					return nil
				}
				done = true
				return seedRange(next, *seeds)
			}
		}
		deadline := time.Now().Add(*duration)
		const batch = 10
		return func() []int64 {
			if !time.Now().Before(deadline) {
				return nil
			}
			s := seedRange(next, batch)
			next += batch
			return s
		}
	}

	if runLegs["campaign"] {
		var st fuzz.Stats
		for nextBatch := seedBatches(); ; {
			batch := nextBatch()
			if batch == nil {
				break
			}
			st.Merge(c.RunSeeds(batch))
		}
		report("campaign", st)
	}
	if runLegs["stress"] {
		var st fuzz.Stats
		for nextBatch := seedBatches(); ; {
			batch := nextBatch()
			if batch == nil {
				break
			}
			st.Merge(c.Stress(batch, *goroutines, 2))
		}
		report("stress", st)
	}
	if runLegs["faults"] {
		var st fuzz.Stats
		for nextBatch := seedBatches(); ; {
			batch := nextBatch()
			if batch == nil {
				break
			}
			st.Merge(c.Faults(batch))
		}
		report("faults", st)
	}
	if runLegs["inject"] {
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

// Parallelize: the paper's headline use case. A dot-product-style kernel
// is parallelized by the DOALL custom tool (task extraction, environment,
// per-worker reductions); the example verifies semantics by running both
// versions, reports the multicore speedup the DOALL planner models for
// the parallel schedule (what the auto tool would select on), and — since
// the dispatched tasks run concurrently on real cores — the measured
// wall-clock of the parallel run against the interpreter's -seq fallback.
//
//	go run ./examples/parallelize
package main

import (
	"context"
	"fmt"
	"log"
	"runtime"
	"time"

	"noelle/internal/core"
	"noelle/internal/interp"
	"noelle/internal/ir"
	"noelle/internal/minic"
	"noelle/internal/passes"
	"noelle/internal/tool"
	"noelle/internal/tools/auto"

	// Register the DOALL planner: the only one the driver can ask here.
	_ "noelle/internal/tools/doall"
)

const src = `
int a[4096];
int b[4096];

int main() {
  int i;
  for (i = 0; i < 4096; i = i + 1) {
    a[i] = i % 101;
    b[i] = (i * 7) % 103;
  }
  int dot = 0;
  for (i = 0; i < 4096; i = i + 1) {
    dot = dot + a[i] * b[i];
  }
  print_i64(dot);
  return dot % 256;
}
`

func main() {
	m, err := minic.Compile("dotprod", src)
	if err != nil {
		log.Fatal(err)
	}
	passes.Optimize(m)

	// Run the sequential version.
	seqModule := ir.CloneModule(m)
	it0 := interp.New(seqModule)
	r0, err := it0.Run()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("sequential: exit=%d output=%q cycles=%d\n", r0, it0.Output.String(), it0.Cycles)

	// Predict the parallel schedule's timing before transforming: one
	// plan-only run of the driver per core count prices each loop's DOALL
	// plan against its measured per-iteration costs — the numbers the
	// auto tool selects on. (No profile is embedded, so both top-level
	// loops count as hot.)
	for _, cores := range []int{2, 4, 8, 12} {
		opts := core.DefaultOptions()
		opts.Cores = cores
		res, err := auto.Run(context.Background(), core.New(m, opts), tool.Options{})
		if err != nil {
			log.Fatal(err)
		}
		for i := range res.Selections {
			if w := res.Selections[i].Won(); w != nil {
				fmt.Printf("%2d cores: loop %s %d -> %d modeled cycles (%.2fx)\n",
					cores, res.Selections[i].Header, w.Seq, w.Par, w.Speedup())
			}
		}
	}

	// Transform for real and verify semantics.
	opts := core.DefaultOptions()
	opts.MinHotness = 0
	n := core.New(m, opts)
	res, err := auto.RunPinned(context.Background(), n, tool.Options{ExecutePlans: true}, "doall")
	if err != nil {
		log.Fatal(err)
	}
	for _, s := range res.Selections {
		if s.Lowered {
			fmt.Printf("parallelized loop %s in @%s (task %s)\n", s.Header, s.Fn, s.TaskName)
		}
	}
	it1 := interp.New(m)
	r1, err := it1.Run()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("parallel:   exit=%d output=%q\n", r1, it1.Output.String())
	if r0 == r1 && it0.Output.String() == it1.Output.String() {
		fmt.Println("semantics preserved ✓")
	} else {
		fmt.Println("SEMANTICS CHANGED ✗")
	}

	// Measured wall-clock: the same transformed module, -seq vs parallel
	// dispatch (meaningful on multi-core machines).
	timeRun := func(seqMode bool) time.Duration {
		it := interp.New(m)
		it.SeqDispatch = seqMode
		start := time.Now()
		if _, err := it.Run(); err != nil {
			log.Fatal(err)
		}
		return time.Since(start)
	}
	seqD, parD := timeRun(true), timeRun(false)
	fmt.Printf("wall-clock: -seq %v, parallel %v (%.2fx on %d CPUs)\n",
		seqD, parD, float64(seqD)/float64(parD), runtime.NumCPU())
}

// noelle-arch prints the architecture description arch.Measure models —
// core counts, SMT, NUMA layout, and core-to-core latencies (paper
// Table 2).
//
// Usage: noelle-arch [-cores N] [-smt N] [-numa N] [-o arch.txt]
package main

import (
	"flag"
	"fmt"
	"os"

	"noelle/internal/arch"
)

func main() {
	cores := flag.Int("cores", 12, "physical cores")
	smt := flag.Int("smt", 2, "SMT ways per core")
	numa := flag.Int("numa", 1, "NUMA nodes")
	out := flag.String("o", "-", "output file")
	flag.Parse()

	d := arch.Measure(*cores, *smt, *numa)
	text := d.Serialize()
	if *out == "-" {
		fmt.Print(text)
		fmt.Fprintf(os.Stderr, "logical cores: %d, distinct pair latencies: %v\n",
			d.LogicalCores(), d.SortedPairLatencies())
		return
	}
	if err := os.WriteFile(*out, []byte(text), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(1)
	}
}

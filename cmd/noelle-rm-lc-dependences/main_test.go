package main

import (
	"flag"
	"os"
	"path/filepath"
	"testing"

	"noelle/internal/bench"
	"noelle/internal/interp"
	"noelle/internal/ir"
	"noelle/internal/minic"
	"noelle/internal/toolio"
)

// accumulatorSrc keeps its running total in a global cell: the
// load-add-store per iteration is the loop-carried memory dependence the
// tool exists to remove.
const accumulatorSrc = `
int a[64];
int total;
int main() {
  int i;
  for (i = 0; i < 64; i = i + 1) { a[i] = i * 3 + 1; }
  for (i = 0; i < 64; i = i + 1) { total = total + a[i]; }
  print_i64(total);
  return total % 251;
}`

// TestMainSmoke runs main itself (any failure path exits the test binary
// non-zero) on a bundled program and on a hand-written memory
// accumulator, and holds the rewritten module to the original's output,
// exit code and final memory.
func TestMainSmoke(t *testing.T) {
	bundled, err := bench.ByName("crc")
	if err != nil {
		t.Fatal(err)
	}
	bm, err := bundled.Compile()
	if err != nil {
		t.Fatal(err)
	}
	am, err := minic.Compile("accumulator", accumulatorSrc)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name        string
		m           *ir.Module
		mustRewrite bool
	}{{"bundled-crc", bm, false}, {"memory-accumulator", am, true}} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			in, out := filepath.Join(dir, "in.nir"), filepath.Join(dir, "out.nir")
			if err := toolio.WriteModule(tc.m, in); err != nil {
				t.Fatal(err)
			}
			os.Args = []string{"noelle-rm-lc-dependences", "-o", out, in}
			flag.CommandLine = flag.NewFlagSet(os.Args[0], flag.ExitOnError)
			main()

			rewritten, err := toolio.ReadModule(out)
			if err != nil {
				t.Fatalf("output module unreadable: %v", err)
			}
			if err := ir.Verify(rewritten); err != nil {
				t.Fatalf("output module malformed: %v", err)
			}
			if tc.mustRewrite && ir.Print(rewritten) == ir.Print(tc.m) {
				t.Error("the memory accumulator was not promoted")
			}
			it0, it1 := interp.New(tc.m), interp.New(rewritten)
			r0, err0 := it0.Run()
			r1, err1 := it1.Run()
			if err0 != nil || err1 != nil {
				t.Fatalf("runs failed: original %v, rewritten %v", err0, err1)
			}
			if r0 != r1 || it0.Output.String() != it1.Output.String() {
				t.Errorf("rewrite changed behaviour: exit %d -> %d, output %q -> %q",
					r0, r1, it0.Output.String(), it1.Output.String())
			}
			if it0.MemoryFingerprint() != it1.MemoryFingerprint() {
				t.Error("rewrite changed the final memory state")
			}
		})
	}
}

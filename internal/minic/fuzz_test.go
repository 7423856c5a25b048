package minic

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"noelle/internal/ir"
)

// compileAllocBound is the most a Compile of one fuzz input may allocate
// (runtime.MemStats.TotalAlloc across the call): 10× the largest of the
// committed seeds, corpus_pointers_while, which allocates 64,960 B for its
// 479 bytes of source.
const compileAllocBound = 650_000

// FuzzCompile: no source text makes Compile panic, run away or allocate
// more than compileAllocBound, and a module it returns verifies. The
// committed seeds under testdata/fuzz/FuzzCompile are small programs in
// the corpus's shape (loops over global arrays, floats, calls, pointers,
// externs) and one input per lexer and parser error path.
func FuzzCompile(f *testing.F) {
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 1<<12 {
			return // the lowering is linear in the source; longer inputs only slow the search
		}
		type result struct {
			m   *ir.Module
			err error
		}
		done := make(chan result, 1)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		go func() {
			m, err := Compile("fuzz", src)
			done <- result{m, err}
		}()
		var r result
		select {
		case r = <-done:
		case <-time.After(10 * time.Second):
			t.Fatalf("Compile did not return in 10 s on %q", src)
		}
		runtime.ReadMemStats(&after)
		if n := after.TotalAlloc - before.TotalAlloc; n > compileAllocBound {
			t.Fatalf("Compile allocated %d B on %q, more than %d B", n, src, compileAllocBound)
		}
		if r.err != nil {
			// Compile verifies what it generates; this error is its bug, not the input's.
			if strings.Contains(r.err.Error(), "generated IR is malformed") {
				t.Fatalf("Compile generated malformed IR for %q: %v", src, r.err)
			}
			return
		}
		if err := ir.Verify(r.m); err != nil {
			t.Fatalf("module of %q does not verify: %v", src, err)
		}
	})
}

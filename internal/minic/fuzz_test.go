package minic

import (
	"strings"
	"testing"
	"time"

	"noelle/internal/ir"
)

// FuzzCompile: no source text makes Compile panic or run away, and a
// module it returns verifies. The committed seeds under
// testdata/fuzz/FuzzCompile are small programs in the corpus's shape
// (loops over global arrays, floats, calls, pointers, externs) and one
// input per lexer and parser error path.
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

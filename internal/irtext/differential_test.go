package irtext_test

import (
	"testing"

	"noelle/internal/bench"
	"noelle/internal/fuzz"
	"noelle/internal/ir"
	"noelle/internal/irtext"
)

// parseOutcome is what a parse of src amounts to: the module printed back,
// or the error.
func parseOutcome(parse func(string) (*ir.Module, error), src string) string {
	m, err := parse(src)
	if err != nil {
		return "error: " + err.Error()
	}
	return ir.Print(m)
}

// matchesReference reports whether Parse and the token-slice reference
// agree on src, failing t with both outcomes when they do not.
func matchesReference(t testing.TB, name, src string) bool {
	t.Helper()
	got, want := parseOutcome(irtext.Parse, src), parseOutcome(refParse, src)
	if got != want {
		t.Errorf("%s: Parse disagrees with the reference parser\n--- Parse ---\n%.2000s\n--- reference ---\n%.2000s", name, got, want)
		return false
	}
	return true
}

// TestParseMatchesReference: the pull scanner parses to the same module,
// or fails with the same error string, as the token-slice parser on every
// module fuzz.Subjects yields (the 41 corpus programs among them), on
// bench.WholeProgram, and on every 97th-byte truncation of one corpus
// module, where the error paths live.
func TestParseMatchesReference(t *testing.T) {
	n, failed := 0, 0
	check := func(name, src string) {
		n++
		if !matchesReference(t, name, src) {
			failed++
		}
	}
	if err := fuzz.Subjects(150, func(name string, m *ir.Module) { check(name, ir.Print(m)) }); err != nil {
		t.Fatal(err)
	}
	whole, err := bench.WholeProgram()
	if err != nil {
		t.Fatal(err)
	}
	check("WholeProgram", ir.Print(whole))

	b, err := bench.ByName("fft_inv") // the largest corpus module printed
	if err != nil {
		t.Fatal(err)
	}
	m, err := b.Compile()
	if err != nil {
		t.Fatal(err)
	}
	src := ir.Print(m)
	for k := 0; k <= len(src) && failed < 10; k += 97 {
		check("fft_inv truncated", src[:k])
	}
	if n < 41+1+150+len(src)/97 {
		t.Errorf("only %d inputs", n)
	}
	t.Logf("%d inputs", n)
}

// FuzzParse: no input makes Parse panic, and Parse agrees with the
// reference parser on every input. The committed seeds under
// testdata/fuzz/FuzzParse are the package's sample module, each
// TestParseErrors case, a truncated corpus module and an array type whose
// byte size int64 cannot hold.
func FuzzParse(f *testing.F) {
	f.Fuzz(func(t *testing.T, src string) {
		matchesReference(t, "input", src)
	})
}

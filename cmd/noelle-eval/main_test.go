package main

import "testing"

// TestDefaultSweepDeterministic: every artifact of the default sweep
// renders the same text run-to-run, so two noelle-eval invocations can
// be diffed and a change in a table is a change in the repository.
func TestDefaultSweepDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("the speedup figures simulate every bundled benchmark twice")
	}
	for _, a := range artifacts {
		a := a
		t.Run(a.name, func(t *testing.T) {
			first, err := a.gen(defaultCores)
			if err != nil {
				t.Fatal(err)
			}
			second, err := a.gen(defaultCores)
			if err != nil {
				t.Fatal(err)
			}
			if first == "" {
				t.Error("empty artifact")
			}
			if first != second {
				t.Errorf("text differs between two runs:\n--- first ---\n%s\n--- second ---\n%s", first, second)
			}
		})
	}
}

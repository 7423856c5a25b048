package main

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestMainSmoke runs main itself (any failure path exits the test binary
// non-zero) and checks the description file it writes: the three shape
// lines and one latency row per logical core.
func TestMainSmoke(t *testing.T) {
	out := filepath.Join(t.TempDir(), "arch.txt")
	os.Args = []string{"noelle-arch", "-cores", "4", "-smt", "2", "-numa", "2", "-o", out}
	flag.CommandLine = flag.NewFlagSet(os.Args[0], flag.ExitOnError)
	main()

	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	text := string(data)
	if !strings.HasPrefix(text, "cores 4\nsmt 2\nnuma 2\n") {
		t.Errorf("description does not start with the requested shape:\n%s", text)
	}
	if rows := strings.Count(text, "\nlat "); rows != 8 {
		t.Errorf("%d latency rows, want one per logical core (8):\n%s", rows, text)
	}
}

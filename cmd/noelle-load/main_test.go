package main

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// guarded has one load carat guards (its index is read from memory), so
// its guard validation run makes a guard call.
const guarded = `module "guarded"
global @g : [2 x i64] zeroinit
global @i : i64 zeroinit
declare @print_i64 : fn(i64) void
func @main() i64 {
entry:
  %k = load i64, @i
  %p = ptradd @g, %k
  %v = load i64, %p
  call void @print_i64(%v)
  ret 0
}
`

// TestExecFlags builds noelle-load and checks its execution flags: an
// engine the interpreter does not know, by flag or by NOELLE_ENGINE,
// exits 1 before any stage runs, -queue-cap is no flag of the lowering (a chosen capacity is set at run
// time, by noelle-bin), and a valid configuration reaches carat's run.
func TestExecFlags(t *testing.T) {
	dir := t.TempDir()
	bin := filepath.Join(dir, "noelle-load")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	in := filepath.Join(dir, "guarded.nir")
	if err := os.WriteFile(in, []byte(guarded), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		env    string
		args   []string
		exit   int
		stderr string
	}{
		{"", []string{"-engine", "bogus"}, 1, `unknown engine "bogus"`},
		{"walkr", nil, 1, `NOELLE_ENGINE: interp: unknown engine "walkr"`},
		{"", []string{"-queue-cap", "64"}, 2, "flag provided but not defined: -queue-cap"},
		{"walker", []string{"-engine", "walker", "-seq", "-dispatch-workers", "2"}, 0, "guard_calls=1"},
	} {
		cmd := exec.Command(bin, append(append([]string{"-tools", "carat", "-o", os.DevNull}, tc.args...), in)...)
		cmd.Env = append(os.Environ(), "NOELLE_ENGINE="+tc.env)
		var stderr strings.Builder
		cmd.Stderr = &stderr
		err := cmd.Run()
		code := 0
		var exit *exec.ExitError
		if errors.As(err, &exit) {
			code = exit.ExitCode()
		} else if err != nil {
			t.Fatalf("%v: %v", tc.args, err)
		}
		if code != tc.exit || !strings.Contains(stderr.String(), tc.stderr) {
			t.Errorf("NOELLE_ENGINE=%s %v: exit %d, stderr %q; want exit %d and %q", tc.env, tc.args, code, stderr.String(), tc.exit, tc.stderr)
		}
	}
}

package main

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"noelle/internal/interp"
	"noelle/internal/ir"
)

// wildStore stores through a pointer 16 bytes below its global (@g is
// laid out at address 8), from @main or from worker 1 of a dispatch.
const wildStore = `module "wild"
global @g : [2 x i64] zeroinit
declare @noelle_dispatch : fn(fn(ptr<i64>, i64, i64) void, ptr<i64>, i64) void
func @task(%env: ptr<i64>, %w: i64, %nw: i64) void {
entry:
  %p = ptradd @g, -2
  store i64 %w, %p
  ret void
}
func @main() i64 {
entry:
  %p = ptradd @g, -2
  store i64 7, %p
  ret 0
}
`

// TestWildStoreExitsWithError builds noelle-bin and runs it on a store to
// a negative address: every engine, -seq or not, must report the
// interpreter's error and exit 1, not crash (a Go panic exits 2).
func TestWildStoreExitsWithError(t *testing.T) {
	dir := t.TempDir()
	bin := filepath.Join(dir, "noelle-bin")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	for _, tc := range []struct{ name, main string }{
		{"root", wildStore},
		{"worker", strings.Replace(wildStore, "  %p = ptradd @g, -2\n  store i64 7, %p\n",
			"  %env = alloca i64, 1\n  call void @noelle_dispatch(@task, %env, 2)\n", 1)},
	} {
		in := filepath.Join(dir, tc.name+".nir")
		if err := os.WriteFile(in, []byte(tc.main), 0o644); err != nil {
			t.Fatal(err)
		}
		for _, args := range [][]string{
			{"-engine", "walker"}, {"-engine", "compiled"}, {"-seq", "-engine", "walker"}, {"-seq", "-engine", "compiled"},
		} {
			cmd := exec.Command(bin, append(args, in)...)
			var stderr strings.Builder
			cmd.Stderr = &stderr
			err := cmd.Run()
			var exit *exec.ExitError
			if !errors.As(err, &exit) || exit.ExitCode() != 1 {
				t.Errorf("%s %v: %v, want exit status 1\n%s", tc.name, args, err, stderr.String())
				continue
			}
			if want := "interp: store at address -8 outside memory"; !strings.Contains(stderr.String(), want) {
				t.Errorf("%s %v: stderr %q does not report %q", tc.name, args, stderr.String(), want)
			}
		}
	}
}

// TestOversizedGlobalExitsWithError: a module with a global too large for
// the interpreter's memory makes noelle-bin exit 1 naming the global,
// before the program prints anything.
func TestOversizedGlobalExitsWithError(t *testing.T) {
	dir := t.TempDir()
	bin := filepath.Join(dir, "noelle-bin")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	for _, size := range []string{"1000000000000", "2000000000000000000"} {
		// minic refuses the second size (its bytes overflow int64), so
		// the module is written as IR.
		src := `module "big"
global @a : [` + size + ` x i64] zeroinit
global @b : i64 zeroinit
declare @print_i64 : fn(i64) void
func @main() i64 {
entry:
  store i64 5, @b
  %v = load i64, @b
  call void @print_i64(%v)
  ret 0
}`
		in := filepath.Join(dir, "big.nir")
		if err := os.WriteFile(in, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
		for _, eng := range []string{"walker", "compiled"} {
			cmd := exec.Command(bin, "-engine", eng, in)
			var stdout, stderr strings.Builder
			cmd.Stdout, cmd.Stderr = &stdout, &stderr
			err := cmd.Run()
			var exit *exec.ExitError
			if !errors.As(err, &exit) || exit.ExitCode() != 1 || stdout.Len() != 0 {
				t.Errorf("a[%s] -engine %s: %v, stdout %q, want exit status 1 and no output\n%s", size, eng, err, stdout.String(), stderr.String())
			}
			if want := "interp: global @a of type [" + size + " x i64] does not fit in memory"; !strings.Contains(stderr.String(), want) {
				t.Errorf("a[%s] -engine %s: stderr %q does not report %q", size, eng, stderr.String(), want)
			}
		}
	}
}

// TestEngineEnvRefused: a NOELLE_ENGINE value that names no tier stops
// noelle-bin before it reads the module, with exit 1 and the variable
// named, instead of running the default tier.
func TestEngineEnvRefused(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "noelle-bin")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	cmd := exec.Command(bin, "no-such-module.nir")
	cmd.Env = append(os.Environ(), "NOELLE_ENGINE=walkr")
	var stderr strings.Builder
	cmd.Stderr = &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 1 {
		t.Fatalf("%v, want exit status 1\n%s", err, stderr.String())
	}
	if want := `NOELLE_ENGINE: interp: unknown engine "walkr"`; !strings.Contains(stderr.String(), want) {
		t.Errorf("stderr %q does not report %q", stderr.String(), want)
	}
}

// TestFooterNamesWalkerFallback: a function the compiled tier rejects
// runs on the walker, and the footer says so. @main reads, on a path the
// run never takes, a value of another function, which only the walker's
// run-time check accepts (the verifier would refuse the module, so it is
// built here, not read).
func TestFooterNamesWalkerFallback(t *testing.T) {
	bld := ir.NewBuilder()
	ghost := ir.NewFunction("ghost", ir.FuncOf(ir.I64Type))
	bld.SetInsertionBlock(ghost.NewBlock("entry"))
	foreign := bld.CreateBinOp(ir.OpAdd, ir.ConstInt(1), ir.ConstInt(2), "foreign")

	m := ir.NewModule("m")
	main := m.AddFunction(ir.NewFunction("main", ir.FuncOf(ir.I64Type)))
	entry, never, done := main.NewBlock("entry"), main.NewBlock("never"), main.NewBlock("done")
	bld.SetInsertionBlock(entry)
	bld.CreateCondBr(ir.ConstBool(false), never, done)
	bld.SetInsertionBlock(never)
	bld.CreateRet(foreign)
	bld.SetInsertionBlock(done)
	bld.CreateRet(ir.ConstInt(3))

	it := interp.New(m)
	it.Eng = interp.EngineCompiled
	code, err := it.Run()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := footer(it, code), "exit=3 cycles=2 steps=2 engine=walker walker-fallback=@main"; got != want {
		t.Errorf("footer %q, want %q", got, want)
	}
}

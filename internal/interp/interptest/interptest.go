// Package interptest provides the differential harness that pins the
// interpreter's execution tiers to each other: the same module is run
// once on the walker (the reference semantics) and once on the compiled
// tier, and every observable — result, error, Output bytes, Steps,
// Cycles, memory fingerprint, communication counters, extern call
// counts — must match exactly. This is the same oracle discipline the
// repo already applies to parallel-vs-sequential dispatch, extended to
// the engine axis.
//
// The core (RunModule, Compare, CompareRuns) is testing-free so that
// non-test oracles — the fuzzing campaign runner in internal/fuzz and
// its noelle-fuzz CLI — can drive the exact same comparison; the
// testing.TB wrappers (Run, AssertTiersAgree) layer the usual go test
// reporting on top.
package interptest

import (
	"fmt"
	"testing"

	"noelle/internal/interp"
	"noelle/internal/ir"
)

// Config shapes one differential run. The zero value runs @main with no
// arguments under default dispatch settings.
type Config struct {
	// Fn names the entry function; empty means @main.
	Fn string
	// Args are the entry function's arguments.
	Args []uint64
	// ExecConfig configures the run exactly as it configures an Interp,
	// except that the engine is RunModule's to choose.
	interp.ExecConfig
	// MaxSteps bounds each run (0 = interpreter default).
	MaxSteps int64
	// Externs are extra host functions registered on both tiers. They
	// are wrapped with per-name call counters, which AssertTiersAgree
	// diffs between tiers.
	Externs map[string]interp.Extern
}

// Result captures everything observable about one tier's run.
type Result struct {
	Engine      interp.Engine
	Value       uint64
	Err         error
	Output      string
	Steps       int64
	Cycles      int64
	Fingerprint uint64
	Comm        [5]int64 // creates, pushes, pops, waits, fires
	ExternCalls map[string]int64
}

// RunModule executes m's entry function on one tier and collects the
// result. Each call builds a fresh interpreter (and so a fresh memory
// image): tiers never share mutable state. The returned error reports
// harness-level problems only (e.g. a missing entry function); the
// execution's own error lands in Result.Err, because a failing run is a
// perfectly comparable observable.
func RunModule(m *ir.Module, eng interp.Engine, cfg Config) (Result, error) {
	it := interp.New(m)
	it.ExecConfig = cfg.ExecConfig
	it.Eng = eng
	it.MaxSteps = cfg.MaxSteps
	res := Result{ExternCalls: map[string]int64{}}
	for name, fn := range cfg.Externs {
		name, fn := name, fn
		it.RegisterExtern(name, func(it *interp.Interp, args []uint64) (uint64, error) {
			res.ExternCalls[name]++
			return fn(it, args)
		})
	}

	fnName := cfg.Fn
	if fnName == "" {
		fnName = "main"
	}
	f := m.FunctionByName(fnName)
	if f == nil {
		return res, fmt.Errorf("interptest: module has no @%s", fnName)
	}
	res.Value, res.Err = it.Call(f, cfg.Args)
	res.Engine = it.Engine()
	res.Output = it.Output.String()
	res.Steps, res.Cycles = it.Steps, it.Cycles
	res.Fingerprint = it.MemoryFingerprint()
	res.Comm[0], res.Comm[1], res.Comm[2], res.Comm[3], res.Comm[4] = it.CommStats()
	return res, nil
}

// CommNames labels the Comm counter slots, in order.
var CommNames = [5]string{"creates", "pushes", "pops", "waits", "fires"}

// Compare diffs every observable of two runs of the same module and
// returns one human-readable line per disagreement (nil when the runs
// agree). The labels name the two sides in the diff lines, e.g.
// "walker"/"compiled" or "seq"/"par".
func Compare(aLabel string, a Result, bLabel string, b Result) []string {
	var diffs []string
	if a.Value != b.Value {
		diffs = append(diffs, fmt.Sprintf("result: %s %d, %s %d", aLabel, a.Value, bLabel, b.Value))
	}
	ae, be := errString(a.Err), errString(b.Err)
	if ae != be {
		diffs = append(diffs, fmt.Sprintf("error: %s %s, %s %s", aLabel, ae, bLabel, be))
	}
	if a.Output != b.Output {
		diffs = append(diffs, fmt.Sprintf("output: %s %q, %s %q", aLabel, a.Output, bLabel, b.Output))
	}
	if a.Steps != b.Steps {
		diffs = append(diffs, fmt.Sprintf("steps: %s %d, %s %d", aLabel, a.Steps, bLabel, b.Steps))
	}
	if a.Cycles != b.Cycles {
		diffs = append(diffs, fmt.Sprintf("cycles: %s %d, %s %d", aLabel, a.Cycles, bLabel, b.Cycles))
	}
	if a.Fingerprint != b.Fingerprint {
		diffs = append(diffs, fmt.Sprintf("memory fingerprint: %s %#x, %s %#x", aLabel, a.Fingerprint, bLabel, b.Fingerprint))
	}
	for i, name := range CommNames {
		if a.Comm[i] != b.Comm[i] {
			diffs = append(diffs, fmt.Sprintf("comm %s: %s %d, %s %d", name, aLabel, a.Comm[i], bLabel, b.Comm[i]))
		}
	}
	for name, n := range a.ExternCalls {
		if bn := b.ExternCalls[name]; bn != n {
			diffs = append(diffs, fmt.Sprintf("extern @%s calls: %s %d, %s %d", name, aLabel, n, bLabel, bn))
		}
	}
	for name := range b.ExternCalls {
		if _, ok := a.ExternCalls[name]; !ok {
			diffs = append(diffs, fmt.Sprintf("extern @%s called on %s only (%d calls)", name, bLabel, b.ExternCalls[name]))
		}
	}
	return diffs
}

// TiersAgree runs m on both tiers and returns the field-by-field
// divergence list (nil when the tiers agree) plus both results. This is
// the testing-free form of AssertTiersAgree the campaign runner uses.
func TiersAgree(m *ir.Module, cfg Config) (walker, compiled Result, diffs []string, err error) {
	walker, err = RunModule(m, interp.EngineWalker, cfg)
	if err != nil {
		return walker, compiled, nil, err
	}
	compiled, err = RunModule(m, interp.EngineCompiled, cfg)
	if err != nil {
		return walker, compiled, nil, err
	}
	return walker, compiled, Compare("walker", walker, "compiled", compiled), nil
}

// Run executes m's entry function on one tier and collects the result,
// failing the test on harness-level errors.
func Run(t testing.TB, m *ir.Module, eng interp.Engine, cfg Config) Result {
	t.Helper()
	res, err := RunModule(m, eng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// AssertTiersAgree runs m on the walker and on the compiled tier and
// fails the test with a field-by-field diff if any observable differs.
// Both results are returned so callers can make further assertions
// (e.g. that the compiled run did not silently fall back).
func AssertTiersAgree(t testing.TB, m *ir.Module, cfg Config) (walker, compiled Result) {
	t.Helper()
	walker, compiled, diffs, err := TiersAgree(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diffs {
		t.Errorf("tiers disagree on %s", d)
	}
	return walker, compiled
}

func errString(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

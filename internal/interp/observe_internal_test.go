package interp

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"noelle/internal/bench"
	"noelle/internal/ir"
)

const observedSrc = `module "m"
global @a : [8 x i64] zeroinit
declare @print_i64 : fn(i64) void
func @bump(%x: i64) i64 {
entry:
  %y = add %x, 1
  ret %y
}
func @main() i64 {
entry:
  br loop
loop:
  %i = phi i64 [ 0, entry ], [ %next, loop ]
  %p = ptradd @a, %i
  %v = load i64, %p
  %v2 = add %v, %i
  store i64 %v2, %p
  %next = call i64 @bump(%i)
  call void @print_i64(%next)
  %c = lt %next, 8
  condbr %c, loop, done
done:
  ret 0
}`

// observeLoop installs a loop-cost request for @main's loop, two
// segmentations wide.
func observeLoop(t *testing.T, it *Interp) *LoopCosts {
	t.Helper()
	loop := it.Mod.FunctionByName("main").BlockByName("loop")
	odd := map[*ir.Instr]int{}
	for i, in := range loop.Instrs {
		odd[in] = i % 2
	}
	lcs, err := it.ObserveLoops([]LoopRequest{{Header: loop, Blocks: map[*ir.Block]bool{loop: true},
		Specs: []SegSpec{{NumSegs: 1}, {SegmentOf: odd, NumSegs: 2}}}})
	if err != nil {
		t.Fatal(err)
	}
	return lcs[0]
}

// requests are the two observations, each installed on a fresh context.
var requests = map[string]func(*testing.T, *Interp){
	"CountEdges":   func(_ *testing.T, it *Interp) { it.CountEdges() },
	"ObserveLoops": func(t *testing.T, it *Interp) { observeLoop(t, it) },
}

// TestPlainStreamAfterProbedOnes: an image that has compiled a function's
// counting stream and its loop stream still compiles, and serves, the
// plain stream a fresh image does — op for op, and not one probe in it.
func TestPlainStreamAfterProbedOnes(t *testing.T) {
	m := parseModule(t, observedSrc)
	main := m.FunctionByName("main")
	it := New(m)
	counted, err := it.img.compiled(main, probes{counts: it.CountEdges()})
	if err != nil || countOps(counted, cCount) != 4 {
		t.Fatalf("counting stream: %v, %d counters; want main's entry and its three edges", err, countOps(counted, cCount))
	}
	observeLoop(t, it)
	looped, err := it.img.compiled(main, probes{loops: it.probes.loops})
	if err != nil || countOps(looped, cLoopIter) != 1 || countOps(looped, cLoopExit) != 1 ||
		countOps(looped, cLoopCall) != 2 || countOps(looped, cLoopReturn) != 2 {
		t.Fatalf("loop stream: %v; want one header probe, one exit probe and two bracketed calls", err)
	}
	plain := plainBody(it.img.compiled(main, probes{}))
	fresh := plainBody(New(m).img.compiled(main, probes{}))
	if !reflect.DeepEqual(plain.blocks, fresh.blocks) || plain.frameLen != fresh.frameLen || plain.probes != (probes{}) {
		t.Error("the plain stream compiled after the probed ones differs from a fresh image's")
	}
	if len(plain.blocks) != len(main.Blocks) {
		t.Errorf("plain stream has %d blocks for %d IR blocks", len(plain.blocks), len(main.Blocks))
	}
	for code := cCount; code <= cLoopReturn; code++ {
		if n := countOps(plain, code); n != 0 {
			t.Errorf("plain stream carries %d probe ops of code %d", n, code)
		}
	}
	if again, _ := it.img.compiled(main, probes{loops: it.probes.loops}); again != looped {
		t.Error("the loop stream was not served from the cache")
	}
}

// TestObservedRunsStopWhereTheWalkerStops: probes retire no step, so at
// every step budget an observing context ends with the error, Steps,
// Cycles and output of the hooked walker it replaced.
func TestObservedRunsStopWhereTheWalkerStops(t *testing.T) {
	m := parseModule(t, observedSrc)
	run := func(budget int64, prepare func(*Interp)) (error, int64, int64, string) {
		it := New(m)
		it.MaxSteps = budget
		prepare(it)
		_, err := it.Run()
		return err, it.Steps, it.Cycles, it.Output.String()
	}
	hooked := func(it *Interp) { it.BlockHook = func(*ir.Block) {} }
	_, total, _, _ := run(0, hooked)
	for budget := int64(1); budget <= total+1; budget++ {
		wantErr, steps, cycles, out := run(budget, hooked)
		if (budget < total) != errors.Is(wantErr, ErrStepLimit) {
			t.Fatalf("budget %d of %d steps: walker ended with %v", budget, total, wantErr)
		}
		for name, request := range requests {
			err, s, c, o := run(budget, func(it *Interp) { request(t, it) })
			if !errors.Is(err, wantErr) || s != steps || c != cycles || o != out {
				t.Errorf("%s, budget %d: (%v, %d steps, %d cycles, %q), the walker (%v, %d, %d, %q)",
					name, budget, err, s, c, o, wantErr, steps, cycles, out)
			}
		}
	}

	// bench.WholeProgram outruns every budget: its capped prefix, counted.
	whole, err := bench.WholeProgram()
	if err != nil {
		t.Fatal(err)
	}
	m = whole
	wantErr, steps, cycles, _ := run(300_000, hooked)
	err, s, c, _ := run(300_000, func(it *Interp) { it.CountEdges() })
	if !errors.Is(wantErr, ErrStepLimit) || !errors.Is(err, ErrStepLimit) || s != steps || c != cycles {
		t.Errorf("WholeProgram capped: counted (%v, %d steps, %d cycles), walker (%v, %d, %d)", err, s, c, wantErr, steps, cycles)
	}
}

// TestObservationIsServedOrRefused: a request pins the context to the
// compiled tier whatever Eng says; hooks, or a function the compiler
// rejects, fail the run by name instead of leaving a hole in the result.
func TestObservationIsServedOrRefused(t *testing.T) {
	m := parseModule(t, observedSrc)
	it := New(m)
	it.Eng = EngineWalker
	counts := it.CountEdges()
	if _, err := it.Run(); err != nil || it.Engine() != EngineCompiled {
		t.Fatalf("counted run: %v on %s, want the compiled tier", err, it.Engine())
	}
	loop := m.FunctionByName("main").BlockByName("loop")
	got := map[string]int64{}
	counts.Each(func(from, to *ir.Block, n int64) {
		name := "call>" + to.Parent.Nam
		if from != nil {
			name = from.Nam + ">" + to.Nam
		}
		got[name] += n
	})
	if want := map[string]int64{"call>main": 1, "call>bump": 8, "entry>loop": 1, "loop>loop": 7, "loop>done": 1}; !reflect.DeepEqual(got, want) {
		t.Errorf("counters %v, want %v", got, want)
	}

	it = New(m)
	it.CountEdges()
	it.InstrHook = func(*ir.Instr) {}
	if _, err := it.Run(); err == nil || !strings.Contains(err.Error(), "cannot observe @main") {
		t.Errorf("hooked and observing: %v, want a refusal naming @main", err)
	}

	// @bump reads a value of @main's: the compiler rejects it, and a plain
	// context would quietly walk it.
	m = parseModule(t, observedSrc)
	bump := m.FunctionByName("bump")
	bump.Blocks[0].Instrs[0].Ops[0] = loop.Instrs[0]
	for name, request := range requests {
		it = New(m)
		request(t, it)
		if _, err := it.Run(); err == nil || !strings.Contains(err.Error(), "cannot observe @bump") {
			t.Errorf("%s over an uncompilable function: %v, want a refusal naming @bump", name, err)
		}
	}
}

package verify_test

// Mutation testing for the comm linter: lower real loops through the
// DSWP and HELIX taskgens, seed the kinds of miscompiles a buggy
// generator would produce, and assert the linter names each one. The
// mutations alter the IR only — the stamped metadata still declares the
// original intent, which is exactly the mismatch the linter exists to
// catch.

import (
	"context"
	"strconv"
	"strings"
	"testing"

	"noelle/internal/core"
	"noelle/internal/interp"
	"noelle/internal/ir"
	"noelle/internal/minic"
	"noelle/internal/passes"
	"noelle/internal/tool"
	"noelle/internal/tools/auto"
	"noelle/internal/tools/helix"
	"noelle/internal/verify"

	// Register the DSWP planner the driver is pinned to.
	_ "noelle/internal/tools/dswp"
)

// pipelineSrc is a DSWP-lowerable loop: an Independent chain that ends in
// a store to c[i], feeding a Sequential accumulator that loads c[i] back.
// The planner cuts between the two, so the lowering has a cross-stage
// memory dependence (recorded as noelle.memdeps="0>1"), the token queue
// that orders it, and a value queue.
const pipelineSrc = `
int b[96];
int c[96];
int main() {
  int i;
  for (i = 0; i < 96; i = i + 1) { b[i] = i * 7 + 3; }
  int acc = 0;
  for (i = 0; i < 96; i = i + 1) {
    int x = b[i] * 3 + i;
    x = x * x + 11;
    x = x * x + 12;
    x = x * x + 13;
    c[i] = x;
    acc = (acc + c[i]) % 9973;
  }
  print_i64(acc);
  return acc % 251;
}`

// carriedSrc is a HELIX-lowerable loop: an order-sensitive recurrence
// (one sequential segment, signal-bracketed) inside a parallel body.
const carriedSrc = `
int a[72];
int c[72];
int main() {
  int i;
  for (i = 0; i < 72; i = i + 1) { a[i] = i * 5 + 2; }
  int acc = 1;
  for (i = 0; i < 72; i = i + 1) {
    int x = a[i] * a[i] + i;
    int y = x * 3 + 7;
    acc = (acc * 3 + y) % 4093;
    c[i] = y % 101;
  }
  print_i64(acc);
  return acc % 251;
}`

func lowerDSWP(t *testing.T) *ir.Module {
	t.Helper()
	m, err := minic.Compile("t", pipelineSrc)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	passes.Optimize(m)
	opts := core.DefaultOptions()
	opts.MinHotness = 0
	opts.Cores = 2
	n := core.New(m, opts)
	res, err := auto.RunPinned(context.Background(), n, tool.Options{ExecutePlans: true}, "dswp")
	if err != nil || res.Lowered() == 0 {
		t.Fatalf("nothing lowered (error %v, rejections %v)", err, res.Rejections)
	}
	return m
}

func lowerHELIX(t *testing.T) *ir.Module {
	t.Helper()
	m, err := minic.Compile("t", carriedSrc)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	passes.Optimize(m)
	opts := core.DefaultOptions()
	opts.MinHotness = 0
	n := core.New(m, opts)
	res, err := auto.RunPinned(context.Background(), n, tool.Options{ExecutePlans: true}, "helix")
	segs := 0
	for _, s := range res.Selections {
		if s.Lowered {
			segs += s.Candidates[0].Plan.(*helix.Plan).NumSeq
		}
	}
	if err != nil || segs == 0 {
		t.Fatalf("no signal-carrying loop lowered (error %v, selections %+v)", err, res.Selections)
	}
	return m
}

// mustBeCommClean guards every mutation: the unmutated lowering passes
// the full comm tier, so whatever the mutated run reports is the
// mutation's doing.
func mustBeCommClean(t *testing.T, m *ir.Module) {
	t.Helper()
	if err := verify.Module(m, verify.TierComm).Err(); err != nil {
		t.Fatalf("unmutated lowering is not comm-clean: %v", err)
	}
}

func mustFlag(t *testing.T, m *ir.Module, want string) {
	t.Helper()
	res := verify.Module(m, verify.TierComm)
	if res.CountAt(verify.TierQuick) > 0 || res.CountAt(verify.TierSSA) > 0 {
		t.Fatalf("mutation broke shallower tiers (meant to be SSA-preserving): %v", res.Err())
	}
	for _, f := range res.Findings {
		if strings.Contains(f.Detail, want) {
			return
		}
	}
	t.Fatalf("linter did not name %q; findings:\n%v", want, res.Err())
}

// stageFn finds the stage-idx function of the first DSWP family in m.
func stageFn(t *testing.T, m *ir.Module, idx int) *ir.Function {
	t.Helper()
	family := ""
	for _, f := range m.Functions {
		if f.MD.Get(verify.MDKind) == verify.KindDSWPWrapper {
			family = f.MD.Get(verify.MDFamily)
			break
		}
	}
	if family == "" {
		t.Fatal("no dswp wrapper in lowered module")
	}
	for _, f := range m.Functions {
		if f.MD.Get(verify.MDKind) == verify.KindDSWPStage &&
			f.MD.Get(verify.MDFamily) == family &&
			f.MD.Get(verify.MDStage) == strconv.Itoa(idx) {
			return f
		}
	}
	t.Fatalf("family %q has no stage %d", family, idx)
	return nil
}

func wrapperFn(t *testing.T, m *ir.Module) *ir.Function {
	t.Helper()
	for _, f := range m.Functions {
		if f.MD.Get(verify.MDKind) == verify.KindDSWPWrapper {
			return f
		}
	}
	t.Fatal("no dswp wrapper in lowered module")
	return nil
}

// findCall returns the first call to the named extern in f satisfying
// pred (nil pred accepts all).
func findCall(f *ir.Function, extern string, pred func(*ir.Instr) bool) *ir.Instr {
	var found *ir.Instr
	f.Instrs(func(in *ir.Instr) bool {
		if in.Opcode != ir.OpCall {
			return true
		}
		callee := in.CalledFunction()
		if callee == nil || callee.Nam != extern {
			return true
		}
		if pred != nil && !pred(in) {
			return true
		}
		found = in
		return false
	})
	return found
}

// isTokenPush matches the token-queue push: the only push whose payload
// is the constant 1.
func isTokenPush(in *ir.Instr) bool {
	args := in.CallArgs()
	if len(args) != 2 {
		return false
	}
	c, ok := args[1].(*ir.Const)
	return ok && c.Int == 1
}

func TestMutationDroppedTokenPush(t *testing.T) {
	m := lowerDSWP(t)
	mustBeCommClean(t, m)
	if got := wrapperFn(t, m).MD.Get(verify.MDMemDeps); got != "0>1" {
		t.Fatalf("lowering recorded memdeps %q, want the store->load dependence 0>1", got)
	}

	push := findCall(stageFn(t, m, 0), interp.ExternQueuePush, isTokenPush)
	if push == nil {
		t.Fatal("stage 0 has no token push")
	}
	push.Parent.Remove(push)
	mustFlag(t, m, "but never pushed")
	mustFlag(t, m, "not covered by the token chain (missing token link 0>1)")
}

func TestMutationDoubleClose(t *testing.T) {
	m := lowerDSWP(t)
	mustBeCommClean(t, m)
	cl := findCall(stageFn(t, m, 0), interp.ExternQueueClose, nil)
	if cl == nil {
		t.Fatal("stage 0 closes nothing")
	}
	dup := &ir.Instr{Opcode: ir.OpCall, Ty: cl.Ty, Ops: append([]ir.Value{}, cl.Ops...)}
	cl.Parent.InsertAfter(dup, cl)
	mustFlag(t, m, "(double close)")
}

func TestMutationPushHoistedOutOfLoop(t *testing.T) {
	m := lowerDSWP(t)
	mustBeCommClean(t, m)
	s0 := stageFn(t, m, 0)
	push := findCall(s0, interp.ExternQueuePush, isTokenPush)
	if push == nil {
		t.Fatal("stage 0 has no token push")
	}
	// Sink the push past the loop, next to the close: still exactly one
	// push textually, but no longer once per iteration.
	cl := findCall(s0, interp.ExternQueueClose, nil)
	push.Parent.Remove(push)
	cl.Parent.InsertBefore(push, cl)
	mustFlag(t, m, "does not execute exactly once per iteration")
}

func TestMutationRetargetedPop(t *testing.T) {
	m := lowerDSWP(t)
	mustBeCommClean(t, m)
	s1 := stageFn(t, m, 1)
	var pops []*ir.Instr
	s1.Instrs(func(in *ir.Instr) bool {
		if in.Opcode == ir.OpCall {
			if c := in.CalledFunction(); c != nil && c.Nam == interp.ExternQueuePop {
				pops = append(pops, in)
			}
		}
		return true
	})
	if len(pops) < 2 {
		t.Fatalf("stage 1 has %d pops, need 2 (token + value) to retarget", len(pops))
	}
	// Point the first pop's handle at the second pop's queue: one queue
	// now starves while the other is drained twice per iteration.
	pops[0].Ops[1] = pops[1].Ops[1]
	mustFlag(t, m, "but never popped")
}

// helixTaskFn finds the signal-bracketed HELIX task in m.
func helixTaskFn(t *testing.T, m *ir.Module) *ir.Function {
	t.Helper()
	for _, f := range m.Functions {
		if f.MD.Get(verify.MDKind) == verify.KindHelixTask && f.MD.Get(verify.MDSegments) != "0" {
			if findCall(f, interp.ExternSignalWait, nil) != nil {
				return f
			}
		}
	}
	t.Fatal("no signal-carrying helix task in lowered module")
	return nil
}

func TestMutationSwappedWaitFire(t *testing.T) {
	m := lowerHELIX(t)
	mustBeCommClean(t, m)
	task := helixTaskFn(t, m)
	wait := findCall(task, interp.ExternSignalWait, nil)
	fire := findCall(task, interp.ExternSignalFire, nil)
	if wait == nil || fire == nil {
		t.Fatal("task lacks the wait/fire bracket")
	}
	// Hoist the fire above the wait: the segment body escapes its
	// bracket and workers no longer execute it in iteration order.
	fire.Parent.Remove(fire)
	wait.Parent.InsertBefore(fire, wait)
	mustFlag(t, m, "precedes its wait (happens-before chain is cyclic)")
}

func TestMutationDroppedFire(t *testing.T) {
	m := lowerHELIX(t)
	mustBeCommClean(t, m)
	task := helixTaskFn(t, m)
	fire := findCall(task, interp.ExternSignalFire, nil)
	if fire == nil {
		t.Fatal("task has no fire")
	}
	fire.Parent.Remove(fire)
	mustFlag(t, m, "awaited but never fired")
}

func TestMutationFireSunkIntoSegmentLoop(t *testing.T) {
	m := lowerHELIX(t)
	mustBeCommClean(t, m)
	task := helixTaskFn(t, m)
	wait := findCall(task, interp.ExternSignalWait, nil)
	fire := findCall(task, interp.ExternSignalFire, nil)
	if wait == nil || fire == nil {
		t.Fatal("task lacks the wait/fire bracket")
	}
	// Sink the fire from behind the segment's loop into its header: the
	// ticket is handed on after the block's first iteration, and again on
	// every later one.
	hdr := wait.Parent.Terminator().Blocks[0]
	fire.Parent.Remove(fire)
	hdr.InsertBefore(fire, hdr.Terminator())
	mustFlag(t, m, "@noelle_signal_fire of segment 0 signal sits in a loop of the task")
}

func TestMutationCarriedCellWrittenAfterFire(t *testing.T) {
	m := lowerHELIX(t)
	mustBeCommClean(t, m)
	task := helixTaskFn(t, m)
	if got := task.MD.Get(verify.MDCarried); got == "" {
		t.Fatal("lowering recorded no carried-state cell")
	}
	fire := findCall(task, interp.ExternSignalFire, nil)
	if fire == nil {
		t.Fatal("task has no fire")
	}
	// The write-back of the carried value slips behind the fire: the next
	// block may reload the cell before it is written.
	var store *ir.Instr
	for _, in := range fire.Parent.Instrs {
		if in.Opcode == ir.OpStore {
			store = in
		}
	}
	if store == nil {
		t.Fatal("no carried-state write-back before the fire")
	}
	fire.Parent.Remove(store)
	fire.Parent.InsertAfter(store, fire)
	mustFlag(t, m, "carried state of segment 0")
}

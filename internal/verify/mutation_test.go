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

	"noelle/internal/bench"
	"noelle/internal/core"
	"noelle/internal/fuzz"
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
// a store to c[i], feeding a Sequential accumulator that loads c[i] back
// and a store of acc + x. The planner cuts between the two, so the
// lowering has a cross-stage memory dependence (recorded as
// noelle.memdeps="0>1"), the token queue that orders it, and a value
// queue for x (the addresses are recomputed where they are used).
const pipelineSrc = `
int b[96];
int c[96];
int d[96];
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
    d[i] = acc + x;
  }
  print_i64(acc);
  return (acc + d[95]) % 251;
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
	return lowerDSWPModule(t, m, 2)
}

func lowerDSWPModule(t *testing.T, m *ir.Module, cores int) *ir.Module {
	t.Helper()
	opts := core.DefaultOptions()
	opts.MinHotness = 0
	opts.Cores = cores
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

// findCall returns the first call to the named extern in f.
func findCall(f *ir.Function, extern string) *ir.Instr {
	var found *ir.Instr
	f.Instrs(func(in *ir.Instr) bool {
		if callee := in.CalledFunction(); in.Opcode == ir.OpCall && callee != nil && callee.Nam == extern {
			found = in
		}
		return found == nil
	})
	return found
}

// seedDSWP lowers pipelineSrc, seeds the named miscompile of the table
// the fuzz inject leg and corpus share, and requires the comm tier to say
// everything the table wants said about it.
func seedDSWP(t *testing.T, name string) {
	t.Helper()
	m := lowerDSWP(t)
	mustBeCommClean(t, m)
	for _, mc := range fuzz.DSWPMiscompiles() {
		if mc.Name != name {
			continue
		}
		if !mc.Apply(m) {
			t.Fatalf("the lowering has no site for %s:\n%s", name, ir.Print(m))
		}
		for _, want := range mc.Want {
			mustFlag(t, m, want)
		}
		return
	}
	t.Fatalf("no miscompile named %s", name)
}

func TestMutationDroppedTokenPush(t *testing.T)     { seedDSWP(t, "dropped_token_push") }
func TestMutationDoubleClose(t *testing.T)          { seedDSWP(t, "double_close") }
func TestMutationPushHoistedOutOfLoop(t *testing.T) { seedDSWP(t, "push_hoisted_out_of_loop") }
func TestMutationRetargetedPop(t *testing.T)        { seedDSWP(t, "retargeted_pop") }
func TestMutationChunkSizeMismatch(t *testing.T)    { seedDSWP(t, "chunk_size_mismatch") }
func TestMutationTailChunkDropped(t *testing.T)     { seedDSWP(t, "tail_chunk_dropped") }
func TestMutationStagingStoreHoistedOutOfLoop(t *testing.T) {
	seedDSWP(t, "staging_store_hoisted_out_of_loop")
}

// TestChunkedPipelinesAreCommClean: the unmutated lowering passes the
// comm tier at every stage count, on the program with a token link and on
// the bundled pipeline benchmark (value queues only, stages that both
// receive and send).
func TestChunkedPipelinesAreCommClean(t *testing.T) {
	for _, cores := range []int{2, 3, 4} {
		m, err := minic.Compile("t", pipelineSrc)
		if err != nil {
			t.Fatalf("compile: %v", err)
		}
		passes.Optimize(m)
		mustBeCommClean(t, lowerDSWPModule(t, m, cores))

		m, err = bench.PipelineProgram(256)
		if err != nil {
			t.Fatal(err)
		}
		m = lowerDSWPModule(t, m, cores)
		mustBeCommClean(t, m)
		stages := 0
		for _, f := range m.Functions {
			if f.MD.Get(verify.MDKind) == verify.KindDSWPWrapper && f.MD.Get(verify.MDStages) == strconv.Itoa(cores) {
				stages = cores
			}
		}
		if stages != cores {
			t.Errorf("no loop of the pipeline program lowered to %d stages", cores)
		}
	}
}

// helixTaskFn finds the signal-bracketed HELIX task in m.
func helixTaskFn(t *testing.T, m *ir.Module) *ir.Function {
	t.Helper()
	for _, f := range m.Functions {
		if f.MD.Get(verify.MDKind) == verify.KindHelixTask && f.MD.Get(verify.MDSegments) != "0" {
			if findCall(f, interp.ExternSignalWait) != nil {
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
	wait := findCall(task, interp.ExternSignalWait)
	fire := findCall(task, interp.ExternSignalFire)
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
	fire := findCall(task, interp.ExternSignalFire)
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
	wait := findCall(task, interp.ExternSignalWait)
	fire := findCall(task, interp.ExternSignalFire)
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
	fire := findCall(task, interp.ExternSignalFire)
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

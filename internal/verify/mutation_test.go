package verify_test

// Mutation testing for the comm linter: seed each entry of the
// miscompile table (fuzz.Miscompiles, which the fuzz corpus recipes and
// the inject leg run too) into a lowering of a bench corpus program, and
// assert the linter names it. The corpus recipes seed the same table into
// a program written for them; here it must find its sites through the
// protocol records of a program written for neither. The mutations alter
// the IR only — the record still declares the original intent, which is
// exactly the mismatch the linter exists to catch.

import (
	"context"
	"strings"
	"testing"

	"noelle/internal/bench"
	"noelle/internal/core"
	"noelle/internal/fuzz"
	"noelle/internal/ir"
	"noelle/internal/tool"
	"noelle/internal/tools/auto"
	"noelle/internal/verify"

	// Register the planners the driver is pinned to.
	_ "noelle/internal/tools/dswp"
	_ "noelle/internal/tools/helix"
)

// subject is the bench program the table is seeded into: its DSWP
// lowering carries value and token queues, its HELIX lowering a segment
// signal and a carried cell, so every entry has a site.
const subject = "fft_inv"

// lower lowers the subject with technique tech at 2 cores.
func lower(t *testing.T, tech string) *ir.Module {
	t.Helper()
	b, err := bench.ByName(subject)
	if err != nil {
		t.Fatal(err)
	}
	m, err := b.Compile()
	if err != nil {
		t.Fatal(err)
	}
	return lowerWith(t, m, tech, 2)
}

// lowerWith lowers every loop of m it can with technique tech at cores
// cores, and requires at least one lowering.
func lowerWith(t *testing.T, m *ir.Module, tech string, cores int) *ir.Module {
	t.Helper()
	opts := core.DefaultOptions()
	opts.MinHotness = 0
	opts.Cores = cores
	res, err := auto.RunPinned(context.Background(), core.New(m, opts), tool.Options{ExecutePlans: true}, tech)
	if err != nil || res.Lowered() == 0 {
		t.Fatalf("%s lowered nothing (error %v, rejections %v)", tech, err, res.Rejections)
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

// mutate seeds the named miscompile of the table into its technique's
// lowering of the subject and requires the comm tier, and only the comm
// tier, to say everything the table wants said about it.
func mutate(t *testing.T, name string) {
	t.Helper()
	for _, mc := range fuzz.Miscompiles() {
		if mc.Name != name {
			continue
		}
		m := lower(t, mc.Technique)
		mustBeCommClean(t, m)
		if !mc.Apply(m) {
			t.Fatalf("the %s lowering has no site for %s", mc.Technique, name)
		}
		res := verify.Module(m, verify.TierComm)
		if res.CountAt(verify.TierQuick) > 0 || res.CountAt(verify.TierSSA) > 0 {
			t.Fatalf("mutation broke shallower tiers (meant to be SSA-preserving): %v", res.Err())
		}
		for _, want := range mc.Want {
			found := false
			for _, f := range res.Findings {
				found = found || strings.Contains(f.Detail, want)
			}
			if !found {
				t.Errorf("linter did not name %q; findings:\n%v", want, res.Err())
			}
		}
		return
	}
	t.Fatalf("no miscompile named %s", name)
}

func TestMutationDroppedTokenPush(t *testing.T)     { mutate(t, "dropped_token_push") }
func TestMutationDoubleClose(t *testing.T)          { mutate(t, "double_close") }
func TestMutationPushHoistedOutOfLoop(t *testing.T) { mutate(t, "push_hoisted_out_of_loop") }
func TestMutationRetargetedPop(t *testing.T)        { mutate(t, "retargeted_pop") }
func TestMutationChunkSizeMismatch(t *testing.T)    { mutate(t, "chunk_size_mismatch") }
func TestMutationTailChunkDropped(t *testing.T)     { mutate(t, "tail_chunk_dropped") }
func TestMutationStagingStoreHoistedOutOfLoop(t *testing.T) {
	mutate(t, "staging_store_hoisted_out_of_loop")
}
func TestMutationSwappedWaitFire(t *testing.T)         { mutate(t, "swapped_wait_fire") }
func TestMutationDroppedFire(t *testing.T)             { mutate(t, "dropped_fire") }
func TestMutationFireSunkIntoSegmentLoop(t *testing.T) { mutate(t, "fire_sunk_into_segment_loop") }
func TestMutationCarriedCellWrittenAfterFire(t *testing.T) {
	mutate(t, "carried_cell_written_after_fire")
}

// TestChunkedPipelinesAreCommClean: the unmutated lowering of the bundled
// pipeline benchmark (value queues only, stages that both receive and
// send) passes the comm tier at every stage count.
func TestChunkedPipelinesAreCommClean(t *testing.T) {
	for _, cores := range []int{2, 3, 4} {
		m, err := bench.PipelineProgram(256)
		if err != nil {
			t.Fatal(err)
		}
		mustBeCommClean(t, lowerWith(t, m, verify.DSWP, cores))
		stages := 0
		for _, l := range verify.Lowerings(m) {
			if l.Err == nil && l.Proto.Technique == verify.DSWP && len(l.Tasks) == cores {
				stages = cores
			}
		}
		if stages != cores {
			t.Errorf("no loop of the pipeline program lowered to %d stages", cores)
		}
	}
}

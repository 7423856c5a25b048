package fuzz

import (
	"strings"
	"testing"

	"noelle/internal/interp"
	"noelle/internal/interp/interptest"
	"noelle/internal/ir"
)

// TestGenerateDeterministic pins the reproducibility contract the whole
// harness rests on: the same seed and config must regenerate the same
// program, byte for byte, in a fresh process as much as in this one.
func TestGenerateDeterministic(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		a := Generate(seed, GenConfig{})
		b := Generate(seed, GenConfig{})
		if a.Source() != b.Source() {
			t.Fatalf("seed %d: two generations differ", seed)
		}
	}
}

// TestCompileDeterministic: a bare seed is a complete reproducer only if
// the seed's source also compiles to one module text. The optimizer's
// mem2reg walks the dominator tree, so this is the test that notices a
// tree whose child order follows a map.
func TestCompileDeterministic(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		p := Generate(seed, GenConfig{})
		var first string
		for run := 0; run < 5; run++ {
			m, err := p.Compile()
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			if text := ir.Print(m); run == 0 {
				first = text
			} else if text != first {
				t.Fatalf("seed %d: compile %d printed a different module than compile 0", seed, run)
			}
		}
	}
}

func TestGenerateSeedsDiffer(t *testing.T) {
	seen := map[string]int64{}
	for seed := int64(1); seed <= 20; seed++ {
		src := Generate(seed, GenConfig{}).Source()
		if prev, dup := seen[src]; dup {
			t.Fatalf("seeds %d and %d generated identical programs", prev, seed)
		}
		seen[src] = seed
	}
}

// TestGenerateCompilesAndRuns sweeps a block of seeds through the
// program-level oracles: verifier-clean compile, bounded execution on
// the walker, and engine-tier agreement.
func TestGenerateCompilesAndRuns(t *testing.T) {
	cfg := GenConfig{Blocks: 4, Arrays: 3, ArrayLen: 32}
	for seed := int64(1); seed <= 25; seed++ {
		p := Generate(seed, cfg)
		m, err := p.Compile()
		if err != nil {
			t.Fatalf("seed %d does not compile: %v\n%s", seed, err, p.Source())
		}
		walker, _, diffs, err := interptest.TiersAgree(m, interptest.Config{})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if walker.Err != nil {
			t.Fatalf("seed %d errors at runtime: %v\n%s", seed, walker.Err, p.Source())
		}
		if len(diffs) > 0 {
			t.Fatalf("seed %d: engine tiers disagree: %s", seed, strings.Join(diffs, "; "))
		}
		if walker.Output == "" {
			t.Fatalf("seed %d produced no output (checksums missing?)", seed)
		}
	}
}

// TestGenerateRoundTrip is the focused irtext round-trip unit test over
// generator output: print → parse → print byte-identical, with a stable
// structural fingerprint. The campaign asserts the same property on
// every seed it judges; this pins it independently of the campaign.
func TestGenerateRoundTrip(t *testing.T) {
	for seed := int64(1); seed <= 25; seed++ {
		p := Generate(seed, GenConfig{Blocks: 4, Arrays: 3, ArrayLen: 32})
		m, err := p.Compile()
		if err != nil {
			t.Fatalf("seed %d does not compile: %v", seed, err)
		}
		if reason := RoundTrip(m); reason != "" {
			t.Fatalf("seed %d: %s", seed, reason)
		}
	}
}

// TestGenerateHotBlockLowers asserts the generator's bias works: across
// a modest seed range, at least one technique lowers at least one
// generated program — otherwise the whole campaign is a no-op that
// "passes" without testing any parallel lowering.
func TestGenerateHotBlockLowers(t *testing.T) {
	c := New(Config{Gen: GenConfig{Blocks: 4, Arrays: 3, ArrayLen: 32}})
	for seed := int64(1); seed <= 15; seed++ {
		p := Generate(seed, c.cfg.Gen)
		m, err := p.Compile()
		if err != nil {
			continue
		}
		if _, lowered, err := c.lower(m, "auto", 4); err == nil && lowered {
			return
		}
	}
	t.Fatal("no seed in 1..15 produced any lowering under auto; generator bias is broken")
}

func TestMinimizeShrinks(t *testing.T) {
	p := Generate(7, GenConfig{})
	failsAlways := func(q *Program) bool { return true }
	min := Minimize(p, failsAlways)
	if got := len(min.ActiveBlocks()); got != 1 {
		t.Fatalf("minimizer kept %d blocks under an always-failing oracle, want 1", got)
	}
	if min.Cfg.ArrayLen != 8 {
		t.Fatalf("minimizer left ArrayLen %d, want the floor 8", min.Cfg.ArrayLen)
	}
	// The minimized program must itself regenerate deterministically.
	again := Minimize(Generate(7, GenConfig{}), failsAlways)
	if min.Source() != again.Source() {
		t.Fatal("minimization is not deterministic")
	}

	// A predicate that needs a specific block must keep exactly that one.
	idx := p.ActiveBlocks()[len(p.ActiveBlocks())-1]
	needsLast := func(q *Program) bool {
		for _, i := range q.ActiveBlocks() {
			if i == idx {
				return true
			}
		}
		return false
	}
	min = Minimize(p, needsLast)
	if got := min.ActiveBlocks(); len(got) != 1 || got[0] != idx {
		t.Fatalf("minimizer kept blocks %v, want exactly [%d]", got, idx)
	}
}

func TestRunModuleExternOverride(t *testing.T) {
	c := New(Config{Gen: GenConfig{Blocks: 4, Arrays: 3, ArrayLen: 32}})
	for seed := int64(1); seed <= 20; seed++ {
		m, err := Generate(seed, c.cfg.Gen).Compile()
		if err != nil {
			continue
		}
		w, lowered, err := c.lower(m, "dswp", 2)
		if err != nil || !lowered {
			continue
		}
		clean, err := interptest.RunModule(w, interp.EngineWalker, interptest.Config{ExecConfig: interp.ExecConfig{SeqDispatch: true, DispatchWorkers: 2}})
		if err != nil || clean.Err != nil || clean.Comm[1] == 0 {
			continue // lowering without queue traffic; override unexercised
		}
		r, err := interptest.RunModule(w, interp.EngineWalker, interptest.Config{
			ExecConfig: interp.ExecConfig{SeqDispatch: true, DispatchWorkers: 2}, Externs: poisonedPushes,
		})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if r.Err == nil || !strings.Contains(r.Err.Error(), errInjectedFault.Error()) {
			t.Fatalf("seed %d: injected extern fault did not surface: %v", seed, r.Err)
		}
		return
	}
	t.Fatal("no seed in 1..20 produced a queue-communicating DSWP lowering")
}

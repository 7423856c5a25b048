package fuzz

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// testConfig keeps in-process campaign tests fast: small programs, a
// reduced matrix, no reproducer minimization overhead unless a test
// asks for it.
func testConfig() Config {
	return Config{
		Gen:     GenConfig{Blocks: 4, Arrays: 3, ArrayLen: 32},
		Matrix:  Matrix{Techniques: []string{"doall", "dswp", "auto"}, Cores: []int{2}, QueueCaps: []int{0}},
		Timeout: 20 * time.Second,
	}
}

// TestCampaignCleanSeeds is the harness's steady-state contract: a
// short fixed-seed campaign over the full oracle stack reports zero
// failures and actually lowered something.
func TestCampaignCleanSeeds(t *testing.T) {
	c := New(testConfig())
	var seeds []int64
	for s := int64(1); s <= 6; s++ {
		seeds = append(seeds, s)
	}
	st := c.RunSeeds(seeds)
	if len(st.Failures) > 0 {
		t.Fatalf("clean campaign reported failures:\n%s", failureList(st))
	}
	if st.Programs != len(seeds) {
		t.Fatalf("judged %d programs, want %d", st.Programs, len(seeds))
	}
	if st.Lowered == 0 {
		t.Fatal("campaign lowered nothing; the oracles never saw a parallel lowering")
	}
	if st.Executions == 0 {
		t.Fatal("campaign performed no differential executions")
	}
}

// TestCampaignParallelMatchesSequential pins that the worker-pool path
// aggregates the same stats as the sequential path (failure ordering
// aside).
func TestCampaignParallelMatchesSequential(t *testing.T) {
	cfg := testConfig()
	seeds := []int64{1, 2, 3, 4}
	seqSt := New(cfg).RunSeeds(seeds)
	cfg.Parallel = 3
	parSt := New(cfg).RunSeeds(seeds)
	if seqSt.Programs != parSt.Programs || seqSt.Cells != parSt.Cells ||
		seqSt.Lowered != parSt.Lowered || seqSt.Executions != parSt.Executions ||
		len(seqSt.Failures) != len(parSt.Failures) {
		t.Fatalf("parallel campaign stats diverge:\n  seq: %s\n  par: %s", seqSt.Summary(), parSt.Summary())
	}
}

// TestCampaignFailureWritesRepro forces a failure through the real
// reporting path (an impossible oracle via a poisoned check) and
// asserts the reproducer lands on disk with a replayable header.
func TestCampaignFailureWritesRepro(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig()
	cfg.OutDir = dir
	cfg.NoMinimize = true
	c := New(cfg)
	p := Generate(5, cfg.Gen)
	cell := Cell{Technique: "dswp", Cores: 2, QCap: 0}
	f := c.fail(p, "campaign", &cell, "synthetic failure for the reporting path")
	if f.Repro == "" {
		t.Fatal("no reproducer path recorded")
	}
	data, err := os.ReadFile(f.Repro)
	if err != nil {
		t.Fatalf("reproducer not written: %v", err)
	}
	text := string(data)
	for _, want := range []string{
		"; noelle-fuzz reproducer",
		"seed=5",
		"tech=dswp cores=2 qcap=0",
		"; replay: go run ./cmd/noelle-fuzz",
		"func @", // the IR dump itself
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("reproducer missing %q:\n%s", want, firstN(text, 600))
		}
	}
	if f.Replay == "" || !strings.Contains(f.Replay, "-seed-base 5") {
		t.Fatalf("replay command not filled in: %q", f.Replay)
	}
	if filepath.Ext(f.Repro) != ".nir" {
		t.Fatalf("reproducer is not a .nir file: %s", f.Repro)
	}
}

// TestInjectMiscompileCaught is the acceptance criterion in miniature:
// seed every known miscompile (the table the verify mutation suite runs,
// seven DSWP and four HELIX entries) into a real lowering of its
// technique of a generated program and require the campaign's static
// oracle to name each one and write a reproducer.
func TestInjectMiscompileCaught(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig()
	cfg.OutDir = dir
	c := New(cfg)
	caught, err := c.InjectMiscompiles(60)
	if err != nil {
		t.Fatalf("inject leg: %v", err)
	}
	if len(caught) != 11 || len(Miscompiles()) != 11 {
		t.Fatalf("%d of %d miscompiles caught, want all 11", len(caught), len(Miscompiles()))
	}
	for i, f := range caught {
		name := Miscompiles()[i].Name
		if f.Repro == "" {
			t.Fatalf("%s: inject leg wrote no reproducer", name)
		}
		data, err := os.ReadFile(f.Repro)
		if err != nil {
			t.Fatalf("%s: reproducer not written: %v", name, err)
		}
		if !strings.Contains(string(data), "injected miscompile: "+name) {
			t.Fatalf("%s: reproducer header does not name the injection", name)
		}
	}
}

// TestStressLeg runs the concurrency leg on a couple of seeds. Under
// -race this doubles as the data-race probe for the shared compiled
// code cache and the queue runtime.
func TestStressLeg(t *testing.T) {
	cfg := testConfig()
	c := New(cfg)
	st := c.Stress([]int64{1, 2, 3, 4}, 4, 2)
	if len(st.Failures) > 0 {
		t.Fatalf("stress leg failures:\n%s", failureList(st))
	}
	if st.Lowered == 0 {
		t.Fatal("stress leg lowered nothing; no concurrency was exercised")
	}
}

// TestFaultsLeg runs the fault-injection leg: step-budget exhaustion
// and aborted workers must both terminate cleanly on every engine.
func TestFaultsLeg(t *testing.T) {
	cfg := testConfig()
	c := New(cfg)
	st := c.Faults([]int64{1, 2, 3, 4, 5, 6})
	if len(st.Failures) > 0 {
		t.Fatalf("faults leg failures:\n%s", failureList(st))
	}
	if st.Lowered == 0 {
		t.Fatal("faults leg lowered nothing; no faults were injected")
	}
	if st.Executions == 0 {
		t.Fatal("faults leg executed nothing")
	}
}

func failureList(st Stats) string {
	var sb strings.Builder
	for _, f := range st.Failures {
		sb.WriteString(f.String())
		sb.WriteString("\n")
	}
	return sb.String()
}

func firstN(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n] + "…"
}

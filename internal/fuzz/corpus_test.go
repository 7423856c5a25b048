package fuzz

// The seed corpus under corpus/ pins the harness's detection power as
// go test regressions: each .nir file is a real DSWP/HELIX lowering
// with one hand-seeded miscompile (the same shapes internal/verify's
// mutation suite constructs in memory), plus one clean lowering as the
// negative control. Every file header records the diagnostics the comm
// linter must report (`; expect: ...`) or `; expect-clean`. The corpus
// is regenerated — never hand-edited — with:
//
//	go test ./internal/fuzz -run TestCorpus -regen-corpus
//
// so a taskgen change that alters the lowering shape refreshes the
// files while the expectations stay the regression contract.

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"noelle/internal/core"
	"noelle/internal/interp"
	"noelle/internal/ir"
	"noelle/internal/irtext"
	"noelle/internal/minic"
	"noelle/internal/passes"
	"noelle/internal/tool"
	"noelle/internal/tools/auto"
	"noelle/internal/tools/helix"
	"noelle/internal/verify"
)

var regenCorpus = flag.Bool("regen-corpus", false, "rewrite internal/fuzz/corpus from the mutation recipes")

// corpusPipelineSrc mirrors the DSWP-lowerable shape from the verify
// mutation suite: an Independent chain storing c[i], a Sequential
// accumulator loading it back and storing acc + x, and the stage cut
// between them, so the lowering carries a value queue (x) and the token
// queue that orders the cross-stage store->load.
const corpusPipelineSrc = `
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

// corpusCarriedSrc mirrors the HELIX-lowerable shape: an
// order-sensitive recurrence (sequential, signal-bracketed segment)
// inside a parallel body.
const corpusCarriedSrc = `
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

type corpusRecipe struct {
	name   string
	expect []string // comm-tier diagnostics; empty = expect-clean
	build  func(t *testing.T) *ir.Module
}

func corpusLowerDSWP(t *testing.T) *ir.Module {
	t.Helper()
	m, err := minic.Compile("corpus", corpusPipelineSrc)
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
		t.Fatalf("dswp lowered nothing (error %v, rejections %v)", err, res.Rejections)
	}
	return m
}

func corpusLowerHELIX(t *testing.T) *ir.Module {
	t.Helper()
	m, err := minic.Compile("corpus", corpusCarriedSrc)
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
		t.Fatalf("helix lowered no signal-carrying loop (error %v, selections %+v)", err, res.Selections)
	}
	return m
}

func corpusFindCall(f *ir.Function, extern string, pred func(*ir.Instr) bool) *ir.Instr {
	var found *ir.Instr
	f.Instrs(func(in *ir.Instr) bool {
		if in.Opcode != ir.OpCall {
			return true
		}
		if c := in.CalledFunction(); c == nil || c.Nam != extern {
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

func corpusHelixTaskFn(t *testing.T, m *ir.Module) *ir.Function {
	t.Helper()
	for _, f := range m.Functions {
		if f.MD.Get(verify.MDKind) == verify.KindHelixTask &&
			corpusFindCall(f, interp.ExternSignalWait, nil) != nil {
			return f
		}
	}
	t.Fatal("no signal-carrying helix task in lowered module")
	return nil
}

func corpusRecipes() []corpusRecipe {
	recipes := []corpusRecipe{{name: "clean_dswp", build: corpusLowerDSWP}}
	for _, mc := range DSWPMiscompiles() {
		recipes = append(recipes, corpusRecipe{name: mc.Name, expect: mc.Want, build: func(t *testing.T) *ir.Module {
			m := corpusLowerDSWP(t)
			if !mc.Apply(m) {
				t.Fatalf("the lowering has no site for %s", mc.Name)
			}
			return m
		}})
	}
	return append(recipes, []corpusRecipe{
		{
			name:   "swapped_wait_fire",
			expect: []string{"precedes its wait (happens-before chain is cyclic)"},
			build: func(t *testing.T) *ir.Module {
				m := corpusLowerHELIX(t)
				task := corpusHelixTaskFn(t, m)
				wait := corpusFindCall(task, interp.ExternSignalWait, nil)
				fire := corpusFindCall(task, interp.ExternSignalFire, nil)
				if wait == nil || fire == nil {
					t.Fatal("task lacks the wait/fire bracket")
				}
				fire.Parent.Remove(fire)
				wait.Parent.InsertBefore(fire, wait)
				return m
			},
		},
		{
			name:   "dropped_fire",
			expect: []string{"awaited but never fired"},
			build: func(t *testing.T) *ir.Module {
				m := corpusLowerHELIX(t)
				fire := corpusFindCall(corpusHelixTaskFn(t, m), interp.ExternSignalFire, nil)
				if fire == nil {
					t.Fatal("task has no fire")
				}
				fire.Parent.Remove(fire)
				return m
			},
		},
		{
			name:   "fire_sunk_into_segment_loop",
			expect: []string{"@noelle_signal_fire of segment 0 signal sits in a loop of the task"},
			build: func(t *testing.T) *ir.Module {
				m := corpusLowerHELIX(t)
				task := corpusHelixTaskFn(t, m)
				wait := corpusFindCall(task, interp.ExternSignalWait, nil)
				fire := corpusFindCall(task, interp.ExternSignalFire, nil)
				if wait == nil || fire == nil {
					t.Fatal("task lacks the wait/fire bracket")
				}
				hdr := wait.Parent.Terminator().Blocks[0]
				fire.Parent.Remove(fire)
				hdr.InsertBefore(fire, hdr.Terminator())
				return m
			},
		},
		{
			name:   "carried_cell_written_after_fire",
			expect: []string{"carried state of segment 0"},
			build: func(t *testing.T) *ir.Module {
				m := corpusLowerHELIX(t)
				fire := corpusFindCall(corpusHelixTaskFn(t, m), interp.ExternSignalFire, nil)
				if fire == nil {
					t.Fatal("task has no fire")
				}
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
				return m
			},
		},
	}...)
}

// TestCorpusRegen rewrites the corpus files when -regen-corpus is set;
// otherwise it only checks the recipes still build (so a taskgen change
// that breaks a recipe is caught here, with the regen command in the
// failure message, not as a stale-file mystery in TestCorpusReplay).
func TestCorpusRegen(t *testing.T) {
	for _, r := range corpusRecipes() {
		r := r
		t.Run(r.name, func(t *testing.T) {
			m := r.build(t)
			if !*regenCorpus {
				return
			}
			var sb strings.Builder
			fmt.Fprintf(&sb, "; corpus: %s — hand-seeded comm-protocol miscompile (see corpus_test.go)\n", r.name)
			if len(r.expect) == 0 {
				sb.WriteString("; expect-clean\n")
			}
			for _, e := range r.expect {
				fmt.Fprintf(&sb, "; expect: %s\n", e)
			}
			sb.WriteString(ir.Print(m))
			if err := os.MkdirAll("corpus", 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join("corpus", r.name+".nir"), []byte(sb.String()), 0o644); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestCorpusReplay replays every corpus file through the comm-tier
// oracle: broken shapes must be flagged with their recorded
// diagnostics, the clean control must pass, and no corpus entry may
// trip the shallower quick/SSA tiers (the miscompiles are
// SSA-preserving by construction — that is what makes them a dynamic
// hazard worth a dedicated linter).
func TestCorpusReplay(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("corpus", "*.nir"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no corpus files (err=%v); regenerate with: go test ./internal/fuzz -run TestCorpus -regen-corpus", err)
	}
	for _, file := range files {
		file := file
		t.Run(filepath.Base(file), func(t *testing.T) {
			data, err := os.ReadFile(file)
			if err != nil {
				t.Fatal(err)
			}
			var expects []string
			clean := false
			for _, line := range strings.Split(string(data), "\n") {
				if s, ok := strings.CutPrefix(line, "; expect: "); ok {
					expects = append(expects, s)
				}
				if line == "; expect-clean" {
					clean = true
				}
			}
			if !clean && len(expects) == 0 {
				t.Fatalf("%s declares no expectations; regenerate the corpus", file)
			}
			m, err := irtext.Parse(string(data))
			if err != nil {
				t.Fatalf("corpus file does not parse: %v", err)
			}
			res := verify.Module(m, verify.TierComm)
			if res.CountAt(verify.TierQuick) > 0 || res.CountAt(verify.TierSSA) > 0 {
				t.Fatalf("corpus entry trips shallow tiers (must be SSA-preserving): %v", res.Err())
			}
			if clean {
				if err := res.Err(); err != nil {
					t.Fatalf("clean control flagged by the comm tier: %v", err)
				}
				return
			}
			for _, want := range expects {
				found := false
				for _, f := range res.Findings {
					if strings.Contains(f.Detail, want) {
						found = true
						break
					}
				}
				if !found {
					t.Errorf("comm tier did not report %q; findings:\n%v", want, res.Err())
				}
			}
		})
	}
}

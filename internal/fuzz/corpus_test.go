package fuzz

// The seed corpus under corpus/ pins the harness's detection power as
// go test regressions: each .nir file is a real DSWP or HELIX lowering
// with one entry of the miscompile table (Miscompiles, which
// internal/verify's mutation suite and the inject leg run too) seeded
// through the lowering's protocol record, plus one clean lowering of each
// technique as the negative control. Every file header records the
// diagnostics the comm linter must report (`; expect: ...`) or
// `; expect-clean`. The corpus is regenerated — never hand-edited — with:
//
//	go test ./internal/fuzz -run TestCorpus -regen-corpus
//
// so a taskgen change that alters the lowering shape refreshes the
// files while the expectations stay the regression contract. Without the
// flag, TestCorpusRegen holds each freshly built recipe to the same
// expectations in memory.

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"noelle/internal/core"
	"noelle/internal/ir"
	"noelle/internal/irtext"
	"noelle/internal/minic"
	"noelle/internal/passes"
	"noelle/internal/tool"
	"noelle/internal/tools/auto"
	"noelle/internal/verify"
)

var regenCorpus = flag.Bool("regen-corpus", false, "rewrite internal/fuzz/corpus from the mutation recipes")

// corpusSrc holds the program each technique's recipes lower. The DSWP
// one is an Independent chain storing c[i], a Sequential accumulator
// loading it back and storing acc + x, and the stage cut between them, so
// the lowering carries a value queue (x) and the token queue that orders
// the cross-stage store->load. The HELIX one is an order-sensitive
// recurrence (a signal-bracketed sequential segment with a carried cell)
// inside a parallel body.
var corpusSrc = map[string]string{
	verify.DSWP: `
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
}`,
	verify.HELIX: `
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
}`,
}

type corpusRecipe struct {
	name   string
	tech   string
	expect []string // comm-tier diagnostics; empty = expect-clean
	mutate func(*ir.Module) bool
}

func corpusRecipes() []corpusRecipe {
	recipes := []corpusRecipe{{name: "clean_dswp", tech: verify.DSWP}, {name: "clean_helix", tech: verify.HELIX}}
	for _, mc := range Miscompiles() {
		recipes = append(recipes, corpusRecipe{name: mc.Name, tech: mc.Technique, expect: mc.Want, mutate: mc.Apply})
	}
	return recipes
}

// build lowers the recipe's program with its technique at 2 cores and
// seeds its miscompile.
func (r corpusRecipe) build(t *testing.T) *ir.Module {
	t.Helper()
	m, err := minic.Compile("corpus", corpusSrc[r.tech])
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	passes.Optimize(m)
	opts := core.DefaultOptions()
	opts.MinHotness = 0
	opts.Cores = 2
	if _, err := auto.RunPinned(context.Background(), core.New(m, opts), tool.Options{ExecutePlans: true}, r.tech); err != nil {
		t.Fatal(err)
	}
	if r.mutate != nil && !r.mutate(m) {
		t.Fatalf("the %s lowering has no site for %s:\n%s", r.tech, r.name, ir.Print(m))
	}
	if r.mutate == nil && !protocolIn(m, r.tech) {
		t.Fatalf("%s lowered no loop with communication", r.tech)
	}
	return m
}

// protocolIn reports whether m holds a pipeline, or a HELIX task with a
// segment signal.
func protocolIn(m *ir.Module, tech string) bool {
	for _, l := range verify.Lowerings(m) {
		if l.Err == nil && l.Proto.Technique == tech && len(l.Proto.Queues)+len(l.Proto.Signals) > 0 {
			return true
		}
	}
	return false
}

// checkComm runs m through the comm tier: it must not trip the
// shallower quick/SSA tiers (the miscompiles are SSA-preserving by
// construction — that is what makes them a dynamic hazard worth a
// dedicated linter), and it must report every expected diagnostic, or
// nothing at all when none is expected.
func checkComm(t *testing.T, m *ir.Module, expect []string) {
	t.Helper()
	res := verify.Module(m, verify.TierComm)
	if res.CountAt(verify.TierQuick) > 0 || res.CountAt(verify.TierSSA) > 0 {
		t.Fatalf("corpus entry trips shallow tiers (must be SSA-preserving): %v", res.Err())
	}
	if len(expect) == 0 {
		if err := res.Err(); err != nil {
			t.Fatalf("clean control flagged by the comm tier: %v", err)
		}
		return
	}
	for _, want := range expect {
		found := false
		for _, f := range res.Findings {
			found = found || strings.Contains(f.Detail, want)
		}
		if !found {
			t.Errorf("comm tier did not report %q; findings:\n%v", want, res.Err())
		}
	}
}

// TestCorpusRegen builds every recipe and holds it to its expectations;
// with -regen-corpus it also rewrites the corpus files (so a taskgen
// change that breaks a recipe is caught here, with the regen command in
// the failure message, not as a stale-file mystery in TestCorpusReplay).
func TestCorpusRegen(t *testing.T) {
	for _, r := range corpusRecipes() {
		r := r
		t.Run(r.name, func(t *testing.T) {
			m := r.build(t)
			checkComm(t, m, r.expect)
			if !*regenCorpus {
				return
			}
			var sb strings.Builder
			if len(r.expect) == 0 {
				fmt.Fprintf(&sb, "; corpus: %s — clean lowering, the negative control (see corpus_test.go)\n; expect-clean\n", r.name)
			} else {
				fmt.Fprintf(&sb, "; corpus: %s — hand-seeded comm-protocol miscompile (see corpus_test.go)\n", r.name)
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
			checkComm(t, m, expects)
		})
	}
}

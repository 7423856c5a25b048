package verify_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"noelle/internal/irtext"
	"noelle/internal/verify"
)

func TestParseTier(t *testing.T) {
	cases := map[string]verify.Tier{
		"":      verify.TierQuick,
		"quick": verify.TierQuick,
		"ssa":   verify.TierSSA,
		"comm":  verify.TierComm,
	}
	for s, want := range cases {
		got, err := verify.ParseTier(s)
		if err != nil || got != want {
			t.Errorf("ParseTier(%q) = %v, %v; want %v", s, got, err, want)
		}
	}
	if _, err := verify.ParseTier("paranoid"); err == nil {
		t.Error("ParseTier accepted an unknown tier")
	}
}

func TestTierStrings(t *testing.T) {
	for tier, want := range map[verify.Tier]string{
		verify.TierQuick: "quick",
		verify.TierSSA:   "ssa",
		verify.TierComm:  "comm",
	} {
		if tier.String() != want {
			t.Errorf("Tier(%d).String() = %q, want %q", int(tier), tier.String(), want)
		}
	}
}

func parseFile(t *testing.T, name string) string {
	t.Helper()
	src, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatalf("read corpus file: %v", err)
	}
	return string(src)
}

// TestCleanModuleAtEveryTier runs a well-formed communicating family
// through the deepest tier: zero findings, and the stats line reports
// the staged counters.
func TestCleanModuleAtEveryTier(t *testing.T) {
	const src = `
module "clean"
declare @noelle_signal_create : fn(i64) i64
declare @noelle_signal_wait : fn(i64, i64) void
declare @noelle_signal_fire : fn(i64, i64) void
declare @noelle_dispatch : fn(fn(ptr<i64>, i64, i64) void, ptr<i64>, i64) void

func @host() i64 {
entry:
  %env = alloca i64, 1
  %sg = call i64 @noelle_signal_create(0)
  %a0 = ptradd %env, 0
  store i64 %sg, %a0
  call void @noelle_dispatch(@htask, %env, 2) !{noelle.protocol="helix signals=0:0"}
  ret 0
}

func @htask(%env: ptr<i64>, %w: i64, %n: i64) void {
entry:
  %a0 = ptradd %env, 0
  %sg = load i64, %a0
  %w1 = add %w, 1
  call void @noelle_signal_wait(%sg, %w)
  call void @noelle_signal_fire(%sg, %w1)
  ret void
}
`
	m, err := irtext.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	res := verify.Module(m, verify.TierComm)
	if err := res.Err(); err != nil {
		t.Fatalf("clean module rejected: %v", err)
	}
	if res.Checked != 2 {
		t.Errorf("checked %d functions, want 2", res.Checked)
	}
}

// TestUnreachableBlockIsSSAFinding: the quick tier tolerates dead
// blocks (execution never sees them); the ssa tier names them.
func TestUnreachableBlockIsSSAFinding(t *testing.T) {
	const src = `
module "dead"
func @f() i64 {
entry:
  ret 0
dead:
  br entry
}
`
	m, err := irtext.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if res := verify.Module(m, verify.TierQuick); res.Err() != nil {
		t.Fatalf("quick tier rejected a dead block: %v", res.Err())
	}
	res := verify.Module(m, verify.TierSSA)
	if res.CountAt(verify.TierSSA) != 1 {
		t.Fatalf("ssa findings = %d, want 1:\n%v", res.CountAt(verify.TierSSA), res.Err())
	}
	want := "block dead is unreachable from the entry"
	if got := res.Findings[0].Detail; got != want {
		t.Errorf("diagnostic = %q, want %q", got, want)
	}
}

// TestCorpus runs the hand-broken modules: each must be flagged by its
// tier with the exact diagnostic, and by nothing shallower (the tiers
// stay staged).
func TestCorpus(t *testing.T) {
	cases := []struct {
		file string
		tier verify.Tier
		want string
	}{
		{"phi_pred_mismatch.nir", verify.TierQuick,
			"phi %i has incoming from non-predecessor other"},
		{"extern_arity.nir", verify.TierSSA,
			"extern @noelle_queue_push declared with 1 parameters, runtime arity is 2"},
		{"double_close.nir", verify.TierComm,
			"token queue (slot 0) is closed 2 times (double close)"},
		{"wait_without_fire.nir", verify.TierComm,
			"signal for segment 0 is awaited but never fired (later workers would wait forever)"},
		{"orphan_token_queue.nir", verify.TierComm,
			"is created but never shipped to an environment slot (orphaned)"},
	}
	for _, c := range cases {
		t.Run(c.file, func(t *testing.T) {
			// ParseUnverified: the corpus is deliberately malformed, and
			// flagging it is exactly the verifier's job.
			m, err := irtext.ParseUnverified(parseFile(t, c.file))
			if err != nil {
				t.Fatalf("parse: %v", err)
			}
			res := verify.Module(m, verify.TierComm)
			if len(res.Findings) == 0 {
				t.Fatalf("verifier accepted a broken module")
			}
			found := false
			for _, f := range res.Findings {
				if f.Tier != c.tier {
					t.Errorf("finding from tier %s, want everything at tier %s: %s", f.Tier, c.tier, f)
				}
				if strings.Contains(f.Detail, c.want) {
					found = true
				}
			}
			if !found {
				t.Errorf("no finding names %q; have:\n%v", c.want, res.Err())
			}
		})
	}
}

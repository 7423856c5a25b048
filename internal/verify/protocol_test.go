package verify_test

import (
	"fmt"
	"strings"
	"testing"

	"noelle/internal/irtext"
	"noelle/internal/verify"
)

// recordHost is a module whose host dispatches a function with one
// record over a one-cell environment holding a queue, with two
// communication-free task functions for a pipeline's record to name and
// an external one of the task signature.
const recordHost = `
module "records"
declare @noelle_queue_create : fn(i64) i64
declare @noelle_dispatch : fn(fn(ptr<i64>, i64, i64) void, ptr<i64>, i64) void
declare @ext : fn(ptr<i64>, i64, i64) void

func @host() i64 {
entry:
  %%env = alloca i64, 1
  %%q = call i64 @noelle_queue_create(8)
  %%a0 = ptradd %%env, 0
  store i64 %%q, %%a0
  call void @noelle_dispatch(%s, %%env, 2) !{noelle.protocol=%q}
  ret 0
}

func @s0(%%env: ptr<i64>, %%w: i64, %%n: i64) void {
entry:
  ret void
}

func @s1(%%env: ptr<i64>, %%w: i64, %%n: i64) void {
entry:
  ret void
}
`

// TestMalformedProtocolRecords: a record no lowering could have emitted
// comes back as a comm finding naming what is wrong with it, never as a
// panic or a clean verdict.
func TestMalformedProtocolRecords(t *testing.T) {
	cases := []struct{ record, want string }{
		{"", "empty record"},
		{"dswp tasks=s0,s1 k=", `malformed field "k="`},
		{"dswp tasks=s0,s1 k=4 queues=0:tok", `malformed queue "0:tok"`},
		{"dswp tasks=s0,s1 k=4 queues=0:token:0", `malformed pair "0"`},
		{"%%% garbage", `malformed field "garbage"`},
		{"pipeline tasks=s0", `unknown technique "pipeline"`},
		{"dswp tasks=s0,s1 k=4 bogus=1", `unknown field "bogus"`},
		{"dswp tasks=s0,s1 tasks=s0,s1 k=4", `malformed field "tasks=s0,s1"`},
		{"dswp tasks=s0,s1 k=four", `field k: strconv.ParseInt`},
		{"dswp tasks=s0,s1 k=4 queues=-1:token:0>1", `"-1" is not a non-negative index`},
		{"dswp tasks=s0,s1 k=4 queues=3:token:0>1", "token queue (slot 3) is outside the 1-cell environment"},
		{"dswp tasks=s0,s1 k=4 queues=99999999999:value:0>1", `"99999999999" is not a non-negative index`},
		{"dswp tasks=s0,s1 k=4 queues=0:token:-1>0", `"-1" is not a non-negative index`},
		{"dswp tasks=s0,s1 k=4 queues=0:value:0>2", "links stage 0 to stage 2 of a 2-stage pipeline"},
		{"dswp tasks=s0,s1,s0 k=4 queues=0:token:0>2", "(token queues must link adjacent stages)"},
		{"dswp tasks=s0,s1 k=4 queues=0:value:1>0", "does not flow forward through the pipeline"},
		{"dswp tasks=s0,s1 k=4 memdeps=1>1", "memory dependence 1>1 does not run forward"},
		{"dswp tasks=s0,s1 k=4 memdeps=0>2", "memory dependence 0>2 does not run forward"},
		{"dswp tasks=s0,s1 k=0", "K >= 1 (have 2 stages, K=0)"},
		{"dswp tasks=s0,s1 k=-3", "K >= 1 (have 2 stages, K=-3)"},
		{"dswp tasks=s0 k=4", "a pipeline needs two stages"},
		{"dswp tasks=s0,nosuch k=4", "task @nosuch is not a function of the module"},
		{"dswp tasks=s0,noelle_queue_create k=4", "task @noelle_queue_create is not a function of the module"},
		{"helix signals=0:1", "signal for segment 1: the 1 segments want one signal each"},
		{"helix signals=0:0,1:0", "signal for segment 0: the 2 segments want one signal each"},
		{"helix signals=0:0 carried=0:1", "carried cell 0 belongs to segment 1, which has no signal"},
		{"helix signals=0:0", "signal for segment 0 (slot 0) is created but never shipped"},
		{"helix tasks=s1", "a helix record names no tasks: its task is the dispatched function"},
		{"doall tasks=s0", "a doall record names no tasks: its task is the dispatched function"},
		{"doall tasks=", `malformed field "tasks="`},
	}
	for _, c := range cases {
		t.Run(c.record, func(t *testing.T) { wantCommFinding(t, "@s0", c.record, c.want) })
	}
	// A DOALL or HELIX task is the dispatched function, which the module
	// must define.
	for _, tech := range []string{verify.DOALL, verify.HELIX} {
		t.Run(tech+" dispatching a declaration", func(t *testing.T) {
			wantCommFinding(t, "@ext", tech, "task @ext is not a function of the module")
		})
	}
}

// wantCommFinding dispatches target with record in recordHost and
// requires a comm finding naming want.
func wantCommFinding(t *testing.T, target, record, want string) {
	t.Helper()
	m, err := irtext.Parse(fmt.Sprintf(recordHost, target, record))
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	res := verify.Module(m, verify.TierComm)
	for _, f := range res.Findings {
		if f.Tier == verify.TierComm && strings.Contains(f.Detail, want) {
			return
		}
	}
	t.Errorf("no comm finding names %q; have:\n%v", want, res.Err())
}

// TestProtocolRecordsRoundTrip: every record the DSWP and HELIX
// lowerings of the mutation subject carry parses, and encodes back to
// itself.
func TestProtocolRecordsRoundTrip(t *testing.T) {
	for _, tech := range []string{verify.DSWP, verify.HELIX} {
		n := 0
		for _, l := range verify.Lowerings(lower(t, tech)) {
			if l.Err != nil {
				t.Fatal(l.Err)
			}
			if got, want := l.Proto.Encode(), l.Call.MD.Get(verify.MDProtocol); got != want {
				t.Errorf("record %q encodes back as %q", want, got)
			}
			n++
		}
		if n == 0 {
			t.Errorf("the %s lowering of %s carries no record", tech, subject)
		}
	}
}

package interp

import (
	"testing"

	"noelle/internal/irtext"
	"noelle/internal/obs"
)

// mustParse is the white-box twin of the black-box suite's parse helper
// (test packages cannot share helpers across the package boundary).
func mustParse(t testing.TB, src string) *Interp {
	t.Helper()
	m, err := irtext.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return New(m)
}

// externFn returns the extern backing the module's declaration of name,
// as a call through it resolves it.
func externFn(t testing.TB, it *Interp, name string) Extern {
	t.Helper()
	e := it.img.externFor(it.Mod.FunctionByName(name))
	if e == nil {
		t.Fatalf("extern @%s not registered", name)
	}
	return e.fn
}

const traceProbeSrc = `module "m"
declare @noelle_queue_create : fn(i64) i64
declare @noelle_queue_push : fn(i64, i64) void
declare @noelle_queue_pop : fn(i64) i64
func @main() i64 {
entry:
  ret 0
}`

// TestTracingOffExternsAllocFree pins the overhead contract of the
// instrumented communication externs: with no Tracer attached, a
// push/pop round trip performs zero allocations — the tracing hook is
// one nil pointer check, nothing more. A regression here (a closure
// capture, an interface conversion, a clock read that escapes) shows up
// as a fractional alloc count and fails the test.
func TestTracingOffExternsAllocFree(t *testing.T) {
	it := mustParse(t, traceProbeSrc)
	qid := it.img.comm.CreateQueue(16)
	push, pop := externFn(t, it, ExternQueuePush), externFn(t, it, ExternQueuePop)
	pushArgs := []uint64{uint64(qid), 7}
	popArgs := []uint64{uint64(qid)}
	allocs := testing.AllocsPerRun(1000, func() {
		if _, err := push(it, pushArgs); err != nil {
			t.Fatal(err)
		}
		if _, err := pop(it, popArgs); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("tracing-off push+pop allocates %.2f objects per op, want 0", allocs)
	}
}

// BenchmarkQueueExterns measures the per-operation cost of a queue
// push/pop round trip through the extern layer with tracing off and on.
// The off case is the product fast path (compare against the PR 6
// baseline: it must not regress); the on case quantifies the tracing
// tax — clock reads plus histogram updates, roughly two time.Now calls
// per op — which only traced runs pay.
func BenchmarkQueueExterns(b *testing.B) {
	for _, traced := range []struct {
		name string
		on   bool
	}{{"off", false}, {"on", true}} {
		b.Run(traced.name, func(b *testing.B) {
			it := mustParse(b, traceProbeSrc)
			if traced.on {
				it.Tracer = obs.NewTracer()
				it.initRecorder()
			}
			qid := it.img.comm.CreateQueue(16)
			push, pop := externFn(b, it, ExternQueuePush), externFn(b, it, ExternQueuePop)
			pushArgs := []uint64{uint64(qid), 7}
			popArgs := []uint64{uint64(qid)}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := push(it, pushArgs); err != nil {
					b.Fatal(err)
				}
				if _, err := pop(it, popArgs); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

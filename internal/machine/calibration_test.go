package machine

import (
	"testing"

	"noelle/internal/arch"
	"noelle/internal/interp"
	"noelle/internal/irtext"
)

// calibrationBound is the documented tolerance between the simulator's
// calibrated QueueLatency (minus the architectural signal latency) and
// the cost the interpreter actually charges per queue push/pop pair.
// Both sides are derived from the same price list, so the bound is tight;
// it exists so a deliberate future re-pricing of the externs fails this
// test loudly instead of silently skewing modeled-vs-measured studies.
const calibrationBound = 4

func runCycles(t *testing.T, src string) int64 {
	t.Helper()
	m, err := irtext.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	it := interp.New(m)
	if _, err := it.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	return it.Cycles
}

// TestQueueLatencyCalibration pins machine.DefaultConfig to the
// measured cost of the queue externs: running 256 push/pop pairs must
// cost exactly QueueOpCycles more per iteration than the same loop
// without them, and the calibrated QueueLatency must equal the
// architectural latency plus that measured cost (within
// calibrationBound).
func TestQueueLatencyCalibration(t *testing.T) {
	withQueue := `module "m"
declare @noelle_queue_create : fn(i64) i64
declare @noelle_queue_push : fn(i64, i64) void
declare @noelle_queue_pop : fn(i64) i64
func @main() i64 {
entry:
  %q = call i64 @noelle_queue_create(1024)
  br loop
loop:
  %i = phi i64 [ 0, entry ], [ %inext, loop ]
  call void @noelle_queue_push(%q, %i)
  %v = call i64 @noelle_queue_pop(%q)
  %inext = add %i, 1
  %c = lt %inext, 256
  condbr %c, loop, done
done:
  ret 0
}`
	control := `module "m"
declare @noelle_queue_create : fn(i64) i64
func @main() i64 {
entry:
  %q = call i64 @noelle_queue_create(1024)
  br loop
loop:
  %i = phi i64 [ 0, entry ], [ %inext, loop ]
  %inext = add %i, 1
  %c = lt %inext, 256
  condbr %c, loop, done
done:
  ret 0
}`
	const iters = 256
	measured := (runCycles(t, withQueue) - runCycles(t, control)) / iters

	if abs64(QueueOpCycles-measured) > calibrationBound {
		t.Errorf("QueueOpCycles = %d, measured per-boundary cost = %d (bound %d)",
			QueueOpCycles, measured, calibrationBound)
	}
	d := arch.Default()
	for _, cores := range []int{2, 4, 12} {
		cfg := DefaultConfig(d, cores)
		want := d.AvgLatency(cores) + measured
		if abs64(cfg.QueueLatency-want) > calibrationBound {
			t.Errorf("cores=%d: calibrated QueueLatency = %d, want %d±%d",
				cores, cfg.QueueLatency, want, calibrationBound)
		}
	}
}

// The signal externs are priced too: a wait/fire pair must cost exactly
// what the price list charges (the HELIX segment-overhead story depends on
// blocked wall-clock time never leaking into Cycles).
func TestSignalCostCharging(t *testing.T) {
	withSignal := `module "m"
declare @noelle_signal_create : fn(i64) i64
declare @noelle_signal_wait : fn(i64, i64) void
declare @noelle_signal_fire : fn(i64, i64) void
func @main() i64 {
entry:
  %s = call i64 @noelle_signal_create(0)
  br loop
loop:
  %i = phi i64 [ 0, entry ], [ %inext, loop ]
  call void @noelle_signal_wait(%s, %i)
  %inext = add %i, 1
  call void @noelle_signal_fire(%s, %inext)
  %c = lt %inext, 256
  condbr %c, loop, done
done:
  ret 0
}`
	control := `module "m"
declare @noelle_signal_create : fn(i64) i64
func @main() i64 {
entry:
  %s = call i64 @noelle_signal_create(0)
  br loop
loop:
  %i = phi i64 [ 0, entry ], [ %inext, loop ]
  %inext = add %i, 1
  %c = lt %inext, 256
  condbr %c, loop, done
done:
  ret 0
}`
	const iters = 256
	measured := (runCycles(t, withSignal) - runCycles(t, control)) / iters
	want := interp.CostSignalWait + interp.CostSignalFire + 2*interp.CostCallOver
	if measured != want {
		t.Errorf("per-iteration signal cost = %d, want %d", measured, want)
	}
}

func abs64(x int64) int64 {
	if x < 0 {
		return -x
	}
	return x
}

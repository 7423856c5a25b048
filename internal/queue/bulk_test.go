package queue

import (
	"errors"
	"testing"
	"time"
)

// seq returns the n values from, from+1, ...
func seq(from uint64, n int) []uint64 {
	vs := make([]uint64, n)
	for i := range vs {
		vs[i] = from + uint64(i)
	}
	return vs
}

// TestBulkMatchesScalarOrder mixes the scalar and bulk operations on one
// queue: the stream is one FIFO whichever operation moved a value, across
// ring wraps and growth.
func TestBulkMatchesScalarOrder(t *testing.T) {
	rt := NewRuntime()
	q := rt.CreateQueue(4)
	next, want := uint64(0), uint64(0)
	for round := 0; round < 40; round++ {
		n := round%7 + 1
		if err := rt.PushN(q, seq(next, n), false); err != nil {
			t.Fatalf("round %d: PushN: %v", round, err)
		}
		next += uint64(n)
		if err := rt.Push(q, next, false); err != nil {
			t.Fatalf("round %d: Push: %v", round, err)
		}
		next++
		v, err := rt.Pop(q, false)
		if err != nil || v != want {
			t.Fatalf("round %d: Pop = (%d, %v), want %d", round, v, err, want)
		}
		want++
		dst := make([]uint64, round%5)
		got, err := rt.PopN(q, dst, false)
		if err != nil || got != len(dst) {
			t.Fatalf("round %d: PopN = (%d, %v), want %d", round, got, err, len(dst))
		}
		for _, v := range dst {
			if v != want {
				t.Fatalf("round %d: PopN delivered %d, want %d", round, v, want)
			}
			want++
		}
	}
	_, pushes, pops, _, _ := rt.Stats()
	if pushes != int64(next) || pops != int64(want) {
		t.Fatalf("Stats = (%d pushes, %d pops), want values moved (%d, %d)", pushes, pops, next, want)
	}
}

// TestBulkLargerThanCapacity: a blocking bulk push of more values than the
// queue may hold goes through one capacity-full at a time, at capacity 1
// too, and never holds more than the capacity.
func TestBulkLargerThanCapacity(t *testing.T) {
	for _, capacity := range []int{1, 3, 8} {
		const n = 1000
		rt := NewRuntime()
		q := rt.CreateQueue(capacity)
		done := make(chan error, 1)
		go func() {
			err := rt.PushN(q, seq(0, n), true)
			if err == nil {
				err = rt.Close(q)
			}
			done <- err
		}()
		var all []uint64
		dst := make([]uint64, 7)
		for {
			got, err := rt.PopN(q, dst, true)
			all = append(all, dst[:got]...)
			if errors.Is(err, ErrClosed) || (err == nil && got < len(dst)) {
				break
			}
			if err != nil {
				t.Fatalf("cap %d: PopN: %v", capacity, err)
			}
		}
		if err := <-done; err != nil {
			t.Fatalf("cap %d: producer: %v", capacity, err)
		}
		if len(all) != n {
			t.Fatalf("cap %d: %d values arrived, want %d", capacity, len(all), n)
		}
		for i, v := range all {
			if v != uint64(i) {
				t.Fatalf("cap %d: value %d = %d", capacity, i, v)
			}
		}
		if _, max, _ := rt.Depth(q); max > capacity {
			t.Fatalf("cap %d: depth reached %d", capacity, max)
		}
	}
}

// TestBulkPushWaitsForWholePiece: with room for some of a piece but not
// all of it, a blocking bulk push waits; it does not trickle values in.
func TestBulkPushWaitsForWholePiece(t *testing.T) {
	rt := NewRuntime()
	q := rt.CreateQueue(4)
	if err := rt.PushN(q, seq(0, 3), true); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- rt.PushN(q, seq(3, 3), true) }()
	time.Sleep(20 * time.Millisecond)
	if cur, _, _ := rt.Depth(q); cur != 3 {
		t.Fatalf("depth %d while the piece does not fit, want 3", cur)
	}
	if _, err := rt.PopN(q, make([]uint64, 2), true); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatalf("blocked PushN: %v", err)
	}
	dst := make([]uint64, 4)
	if got, err := rt.PopN(q, dst, true); err != nil || got != 4 || dst[0] != 2 || dst[3] != 5 {
		t.Fatalf("PopN = (%d, %v) %v, want 2..5", got, err, dst)
	}
}

// TestBulkPopShortOnlyWhenClosedAndDrained pins PopN's return contract.
func TestBulkPopShortOnlyWhenClosedAndDrained(t *testing.T) {
	rt := NewRuntime()
	q := rt.CreateQueue(8)
	if err := rt.PushN(q, seq(10, 3), true); err != nil {
		t.Fatal(err)
	}
	// Open and short of values: non-blocking is the sequential-mode error.
	if got, err := rt.PopN(q, make([]uint64, 5), false); err == nil || errors.Is(err, ErrClosed) {
		t.Fatalf("non-blocking PopN past the values = (%d, %v), want the sequential-execution error", got, err)
	}
	if err := rt.PushN(q, seq(20, 3), true); err != nil {
		t.Fatal(err)
	}
	// Blocking: waits for the rest, and the close mid-wait releases it short.
	type res struct {
		got int
		err error
	}
	done := make(chan res, 1)
	dst := make([]uint64, 5)
	go func() { got, err := rt.PopN(q, dst, true); done <- res{got, err} }()
	time.Sleep(20 * time.Millisecond)
	select {
	case r := <-done:
		t.Fatalf("PopN returned (%d, %v) from an open queue holding fewer values", r.got, r.err)
	default:
	}
	if err := rt.Close(q); err != nil {
		t.Fatal(err)
	}
	if r := <-done; r.err != nil || r.got != 3 || dst[0] != 20 || dst[2] != 22 {
		t.Fatalf("PopN after close = (%d, %v) %v, want 3 values 20..22", r.got, r.err, dst)
	}
	if got, err := rt.PopN(q, dst, true); got != 0 || !errors.Is(err, ErrClosed) {
		t.Fatalf("PopN of a drained closed queue = (%d, %v), want ErrClosed", got, err)
	}
	if err := rt.PushN(q, seq(0, 2), false); !errors.Is(err, ErrClosed) {
		t.Fatalf("PushN after close: %v, want ErrClosed", err)
	}
	if err := rt.PushN(q, nil, true); err != nil {
		t.Fatalf("empty PushN after close: %v, want nil (nothing to push)", err)
	}
}

// TestBulkCloseReleasesBlockedPush: a producer waiting for room for its
// piece is released by Close with ErrClosed.
func TestBulkCloseReleasesBlockedPush(t *testing.T) {
	rt := NewRuntime()
	q := rt.CreateQueue(2)
	if err := rt.PushN(q, seq(0, 2), true); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- rt.PushN(q, seq(2, 2), true) }()
	time.Sleep(20 * time.Millisecond)
	if err := rt.Close(q); err != nil {
		t.Fatal(err)
	}
	if err := <-done; !errors.Is(err, ErrClosed) {
		t.Fatalf("blocked PushN after close: %v, want ErrClosed", err)
	}
}

// TestBulkAbortAtAnyPhase is TestAbortReleasesWaitersAtAnyPhase for the
// bulk operations: the abort lands before the wait, while it spins, or
// after it parked, and every waiter comes back with ErrAborted.
func TestBulkAbortAtAnyPhase(t *testing.T) {
	var parks int64
	const trials = 300
	for trial := 0; trial < trials; trial++ {
		rt := NewRuntime()
		full := rt.CreateQueue(4)
		empty := rt.CreateQueue(4)
		if err := rt.PushN(full, seq(0, 3), true); err != nil {
			t.Fatalf("priming push: %v", err)
		}
		started := make(chan struct{}, 2)
		errs := make(chan error, 2)
		go func() { started <- struct{}{}; errs <- rt.PushN(full, seq(3, 2), true) }()
		go func() { started <- struct{}{}; _, err := rt.PopN(empty, make([]uint64, 2), true); errs <- err }()
		<-started
		<-started
		if trial%3 == 2 {
			time.Sleep(200 * time.Microsecond) // let them park
		}
		rt.Abort(nil)
		for i := 0; i < 2; i++ {
			select {
			case err := <-errs:
				if !errors.Is(err, ErrAborted) {
					t.Fatalf("trial %d: waiter returned %v, want ErrAborted", trial, err)
				}
			case <-time.After(5 * time.Second):
				t.Fatalf("trial %d: a bulk waiter was not released by Abort", trial)
			}
		}
		ps := rt.ParkStats()
		parks += ps.PushParks + ps.PopParks
	}
	t.Logf("%d of %d bulk waits had parked when the abort arrived", parks, 2*trials)
}

// TestBulkGrowthUnderConcurrentPop: non-blocking bulk pushes outgrow the
// ring, several doublings at once, while a consumer pops chunks out of it
// on another goroutine.
func TestBulkGrowthUnderConcurrentPop(t *testing.T) {
	const chunks, k = 2000, 97
	rt := NewRuntime()
	q := rt.CreateQueue(2)
	done := make(chan error, 1)
	go func() {
		dst := make([]uint64, 64)
		want := uint64(0)
		for {
			got, err := rt.PopN(q, dst, true)
			for _, v := range dst[:got] {
				if v != want {
					done <- errors.New("value lost or reordered across a ring swap")
					return
				}
				want++
			}
			if errors.Is(err, ErrClosed) || (err == nil && got < len(dst)) {
				if want != chunks*k {
					err = errors.New("values left behind")
				} else {
					err = nil
				}
				done <- err
				return
			}
			if err != nil {
				done <- err
				return
			}
		}
	}()
	for c := 0; c < chunks; c++ {
		if err := rt.PushN(q, seq(uint64(c*k), k), false); err != nil {
			t.Fatalf("chunk %d: %v", c, err)
		}
	}
	if err := rt.Close(q); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// FuzzQueueOps drives a random sequence of Push, PushN, Pop, PopN and
// Close in non-blocking mode against a slice: the queue must never panic,
// deliver the same values in the same order, and fail exactly where the
// model does. Each operation is two bytes: the kind and a size.
func FuzzQueueOps(f *testing.F) {
	f.Add([]byte{0, 1, 1, 9, 2, 0, 3, 4, 3, 9, 4, 0, 2, 0})
	f.Add([]byte{1, 200, 3, 100, 1, 17, 3, 255, 4, 0, 0, 1, 1, 3})
	f.Add([]byte{3, 0, 1, 0, 2, 0, 4, 0, 4, 0, 3, 1})
	f.Fuzz(func(t *testing.T, prog []byte) {
		rt := NewRuntime()
		q := rt.CreateQueue(int(len(prog)%5) + 1)
		var model []uint64
		closed := false
		next := uint64(1)
		for i := 0; i+1 < len(prog); i += 2 {
			kind, size := prog[i]%5, int(prog[i+1])
			switch kind {
			case 0: // Push
				err := rt.Push(q, next, false)
				if closed != errors.Is(err, ErrClosed) || (!closed && err != nil) {
					t.Fatalf("op %d: Push with closed=%v: %v", i/2, closed, err)
				}
				if !closed {
					model = append(model, next)
				}
				next++
			case 1: // PushN
				vs := seq(next, size)
				err := rt.PushN(q, vs, false)
				wantErr := closed && size > 0
				if wantErr != errors.Is(err, ErrClosed) || (!wantErr && err != nil) {
					t.Fatalf("op %d: PushN(%d) with closed=%v: %v", i/2, size, closed, err)
				}
				if !closed {
					model = append(model, vs...)
				}
				next += uint64(size)
			case 2: // Pop
				v, err := rt.Pop(q, false)
				switch {
				case len(model) > 0:
					if err != nil || v != model[0] {
						t.Fatalf("op %d: Pop = (%d, %v), want %d", i/2, v, err, model[0])
					}
					model = model[1:]
				case closed != errors.Is(err, ErrClosed) || err == nil:
					t.Fatalf("op %d: Pop of an empty queue with closed=%v: %v", i/2, closed, err)
				}
			case 3: // PopN
				dst := make([]uint64, size)
				got, err := rt.PopN(q, dst, false)
				want := min(size, len(model))
				if got != want {
					t.Fatalf("op %d: PopN(%d) moved %d values, model holds %d", i/2, size, got, len(model))
				}
				for j, v := range dst[:got] {
					if v != model[j] {
						t.Fatalf("op %d: PopN value %d = %d, want %d", i/2, j, v, model[j])
					}
				}
				model = model[got:]
				switch {
				case got == size || (closed && got > 0):
					if err != nil {
						t.Fatalf("op %d: PopN(%d) = (%d, %v), want no error", i/2, size, got, err)
					}
				case closed != errors.Is(err, ErrClosed) || err == nil:
					t.Fatalf("op %d: short PopN with closed=%v: %v", i/2, closed, err)
				}
			case 4: // Close
				if err := rt.Close(q); err != nil {
					t.Fatalf("op %d: Close: %v", i/2, err)
				}
				closed = true
			}
		}
		if cur, _, err := rt.Depth(q); err != nil || cur != len(model) {
			t.Fatalf("depth = (%d, %v), model holds %d", cur, err, len(model))
		}
	})
}

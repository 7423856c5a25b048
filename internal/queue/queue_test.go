package queue

import (
	"errors"
	"sync"
	"testing"
	"time"
)

func TestQueueFIFOOrder(t *testing.T) {
	rt := NewRuntime()
	q := rt.CreateQueue(8)
	for i := uint64(0); i < 5; i++ {
		if err := rt.Push(q, i*10, true); err != nil {
			t.Fatalf("push %d: %v", i, err)
		}
	}
	for i := uint64(0); i < 5; i++ {
		v, err := rt.Pop(q, true)
		if err != nil {
			t.Fatalf("pop %d: %v", i, err)
		}
		if v != i*10 {
			t.Fatalf("pop %d = %d, want %d", i, v, i*10)
		}
	}
}

func TestQueueBackpressureBlocksProducer(t *testing.T) {
	rt := NewRuntime()
	q := rt.CreateQueue(2)
	done := make(chan error, 1)
	go func() {
		// Third push must park until the consumer drains one slot.
		var err error
		for i := 0; i < 3 && err == nil; i++ {
			err = rt.Push(q, uint64(i), true)
		}
		done <- err
	}()
	// Give the producer time to fill the queue and park.
	time.Sleep(20 * time.Millisecond)
	select {
	case err := <-done:
		t.Fatalf("producer finished past capacity without a consumer: %v", err)
	default:
	}
	if _, err := rt.Pop(q, true); err != nil {
		t.Fatalf("pop: %v", err)
	}
	if err := <-done; err != nil {
		t.Fatalf("producer: %v", err)
	}
	if cur, max, _ := rt.Depth(q); cur != 2 || max != 2 {
		t.Fatalf("depth = (%d, %d), want (2, 2)", cur, max)
	}
}

func TestQueueSequentialModeGrowsPastCapacity(t *testing.T) {
	rt := NewRuntime()
	q := rt.CreateQueue(2)
	for i := uint64(0); i < 100; i++ {
		if err := rt.Push(q, i, false); err != nil {
			t.Fatalf("non-blocking push %d: %v", i, err)
		}
	}
	for i := uint64(0); i < 100; i++ {
		v, err := rt.Pop(q, false)
		if err != nil {
			t.Fatalf("pop %d: %v", i, err)
		}
		if v != i {
			t.Fatalf("pop %d = %d, want %d", i, v, i)
		}
	}
}

func TestQueueSequentialPopEmptyIsError(t *testing.T) {
	rt := NewRuntime()
	q := rt.CreateQueue(4)
	if _, err := rt.Pop(q, false); err == nil {
		t.Fatal("non-blocking pop of empty queue succeeded, want error")
	}
}

func TestQueueCloseDrainsThenErrClosed(t *testing.T) {
	rt := NewRuntime()
	q := rt.CreateQueue(4)
	if err := rt.Push(q, 7, true); err != nil {
		t.Fatalf("push: %v", err)
	}
	if err := rt.Close(q); err != nil {
		t.Fatalf("close: %v", err)
	}
	if err := rt.Push(q, 8, true); !errors.Is(err, ErrClosed) {
		t.Fatalf("push after close: %v, want ErrClosed", err)
	}
	if v, err := rt.Pop(q, true); err != nil || v != 7 {
		t.Fatalf("drain pop = (%d, %v), want (7, nil)", v, err)
	}
	if _, err := rt.Pop(q, true); !errors.Is(err, ErrClosed) {
		t.Fatalf("pop after drain: %v, want ErrClosed", err)
	}
	// A consumer blocked on an open queue is released by Close.
	q2 := rt.CreateQueue(4)
	done := make(chan error, 1)
	go func() {
		_, err := rt.Pop(q2, true)
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	if err := rt.Close(q2); err != nil {
		t.Fatalf("close q2: %v", err)
	}
	if err := <-done; !errors.Is(err, ErrClosed) {
		t.Fatalf("blocked pop after close: %v, want ErrClosed", err)
	}
}

func TestAbortWakesEveryBlockedOperation(t *testing.T) {
	rt := NewRuntime()
	full := rt.CreateQueue(1)
	empty := rt.CreateQueue(1)
	sig := rt.CreateSignal(0)
	if err := rt.Push(full, 1, true); err != nil {
		t.Fatalf("priming push: %v", err)
	}
	errs := make(chan error, 3)
	go func() { errs <- rt.Push(full, 2, true) }()
	go func() { _, err := rt.Pop(empty, true); errs <- err }()
	go func() { errs <- rt.Wait(sig, 5, true) }()
	time.Sleep(20 * time.Millisecond)
	rt.Abort(errors.New("worker 3 exploded"))
	for i := 0; i < 3; i++ {
		select {
		case err := <-errs:
			if !errors.Is(err, ErrAborted) {
				t.Fatalf("blocked op returned %v, want ErrAborted", err)
			}
		case <-time.After(2 * time.Second):
			t.Fatal("blocked operation not released by Abort")
		}
	}
	// Operations after the abort fail fast, keeping the first cause.
	if err := rt.Push(full, 3, true); !errors.Is(err, ErrAborted) {
		t.Fatalf("push after abort: %v, want ErrAborted", err)
	}
}

func TestSignalTicketOrdering(t *testing.T) {
	rt := NewRuntime()
	s := rt.CreateSignal(0)
	// Ticket 0 is immediately available (counter starts there).
	if err := rt.Wait(s, 0, false); err != nil {
		t.Fatalf("wait 0: %v", err)
	}
	// A future ticket in sequential mode is a deterministic error.
	if err := rt.Wait(s, 3, false); err == nil {
		t.Fatal("non-blocking wait for unfired ticket succeeded")
	}
	// Firing out of order keeps the counter monotonic.
	if err := rt.Fire(s, 2); err != nil {
		t.Fatalf("fire 2: %v", err)
	}
	if err := rt.Fire(s, 1); err != nil {
		t.Fatalf("fire 1: %v", err)
	}
	if err := rt.Wait(s, 2, false); err != nil {
		t.Fatalf("wait 2 after fire 2: %v", err)
	}
	// A parked waiter is released exactly when its ticket comes up.
	done := make(chan error, 1)
	go func() { done <- rt.Wait(s, 4, true) }()
	time.Sleep(10 * time.Millisecond)
	select {
	case err := <-done:
		t.Fatalf("wait 4 returned early: %v", err)
	default:
	}
	if err := rt.Fire(s, 4); err != nil {
		t.Fatalf("fire 4: %v", err)
	}
	if err := <-done; err != nil {
		t.Fatalf("wait 4: %v", err)
	}
}

func TestInvalidHandles(t *testing.T) {
	rt := NewRuntime()
	if err := rt.Push(3, 1, true); err == nil {
		t.Fatal("push to invalid handle succeeded")
	}
	if _, err := rt.Pop(-1, true); err == nil {
		t.Fatal("pop from invalid handle succeeded")
	}
	if err := rt.Wait(0, 0, true); err == nil {
		t.Fatal("wait on invalid signal succeeded")
	}
	if err := rt.Fire(9, 1); err == nil {
		t.Fatal("fire on invalid signal succeeded")
	}
}

// TestConcurrentSPSCPipeline runs a 4-stage pipeline of goroutines over
// bounded queues — the shape DSWP task generation produces — and checks
// every value arrives in order. Run under -race this doubles as the
// runtime's memory-model test.
func TestConcurrentSPSCPipeline(t *testing.T) {
	const stages = 4
	const n = 10_000
	rt := NewRuntime()
	var qs [stages - 1]int64
	for i := range qs {
		qs[i] = rt.CreateQueue(16)
	}
	var wg sync.WaitGroup
	fail := make(chan string, stages)
	for s := 0; s < stages; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := uint64(0); i < n; i++ {
				v := i
				if s > 0 {
					got, err := rt.Pop(qs[s-1], true)
					if err != nil {
						fail <- err.Error()
						return
					}
					if got != i+uint64(s-1) {
						fail <- "out-of-order value"
						return
					}
					v = got + 1
				}
				if s < stages-1 {
					if err := rt.Push(qs[s], v, true); err != nil {
						fail <- err.Error()
						return
					}
				}
			}
			if s > 0 {
				if err := rt.Close(qs[s-1]); err == nil && s < stages-1 {
					_ = err
				}
			}
		}(s)
	}
	wg.Wait()
	select {
	case msg := <-fail:
		t.Fatal(msg)
	default:
	}
	_, pushes, pops, _, _ := rt.Stats()
	if pushes != (stages-1)*n || pops != (stages-1)*n {
		t.Fatalf("op counts = (%d pushes, %d pops), want %d each", pushes, pops, (stages-1)*n)
	}
}

// TestManyProducersManyConsumers: the parallelizers generate one producer
// and one consumer per queue, but a hand-written or hostile module need
// not. Four producers and four consumers over one capacity-2 queue must
// deliver every value exactly once, whichever side locks, spins or parks.
func TestManyProducersManyConsumers(t *testing.T) {
	const lanes, perLane = 4, 5_000
	rt := NewRuntime()
	q := rt.CreateQueue(2)
	var producers, consumers sync.WaitGroup
	seen := make([][]uint64, lanes)
	for l := 0; l < lanes; l++ {
		producers.Add(1)
		go func(l int) {
			defer producers.Done()
			for i := 0; i < perLane; i++ {
				if err := rt.Push(q, uint64(l*perLane+i), true); err != nil {
					t.Errorf("producer %d: %v", l, err)
					return
				}
			}
		}(l)
		consumers.Add(1)
		go func(l int) {
			defer consumers.Done()
			for {
				v, err := rt.Pop(q, true)
				if errors.Is(err, ErrClosed) {
					return
				}
				if err != nil {
					t.Errorf("consumer %d: %v", l, err)
					return
				}
				seen[l] = append(seen[l], v)
			}
		}(l)
	}
	producers.Wait()
	if err := rt.Close(q); err != nil {
		t.Fatalf("close: %v", err)
	}
	consumers.Wait()
	count := make([]int, lanes*perLane)
	for _, vs := range seen {
		for _, v := range vs {
			count[v]++
		}
	}
	for v, n := range count {
		if n != 1 {
			t.Fatalf("value %d delivered %d times, want exactly once", v, n)
		}
	}
	_, pushes, pops, _, _ := rt.Stats()
	if pushes != lanes*perLane || pops != lanes*perLane {
		t.Fatalf("op counts = (%d pushes, %d pops), want %d each", pushes, pops, lanes*perLane)
	}
}

// TestAbortReleasesWaitersAtAnyPhase aborts with no delay after starting
// the waiters, over many trials, so the teardown lands before a wait
// starts, while it still spins, and after it parked. Every waiter must
// come back with ErrAborted from each of those.
func TestAbortReleasesWaitersAtAnyPhase(t *testing.T) {
	var parks int64
	const trials = 300
	for trial := 0; trial < trials; trial++ {
		rt := NewRuntime()
		full := rt.CreateQueue(1)
		empty := rt.CreateQueue(1)
		sig := rt.CreateSignal(0)
		if err := rt.Push(full, 1, true); err != nil {
			t.Fatalf("priming push: %v", err)
		}
		started := make(chan struct{}, 3)
		errs := make(chan error, 3)
		go func() { started <- struct{}{}; errs <- rt.Push(full, 2, true) }()
		go func() { started <- struct{}{}; _, err := rt.Pop(empty, true); errs <- err }()
		go func() { started <- struct{}{}; errs <- rt.Wait(sig, 5, true) }()
		for i := 0; i < 3; i++ {
			<-started
		}
		rt.Abort(nil)
		for i := 0; i < 3; i++ {
			select {
			case err := <-errs:
				if !errors.Is(err, ErrAborted) {
					t.Fatalf("trial %d: waiter returned %v, want ErrAborted", trial, err)
				}
			case <-time.After(5 * time.Second):
				t.Fatalf("trial %d: a waiter was not released by Abort", trial)
			}
		}
		ps := rt.ParkStats()
		parks += ps.PushParks + ps.PopParks + ps.WaitParks
	}
	// Not asserted: which phase each abort caught depends on the
	// scheduler. The log shows whether this host exercised both.
	t.Logf("%d of %d waits had parked when the abort arrived", parks, 3*trials)
}

// TestGrowthUnderConcurrentPop: non-blocking pushes double the ring while
// a consumer on another goroutine is popping out of it. The consumer may
// be reading the old generation as the new one is swapped in; every value
// must still arrive, once and in order.
func TestGrowthUnderConcurrentPop(t *testing.T) {
	const n = 200_000
	rt := NewRuntime()
	q := rt.CreateQueue(2)
	done := make(chan error, 1)
	go func() {
		for i := uint64(0); i < n; i++ {
			v, err := rt.Pop(q, true)
			if err != nil {
				done <- err
				return
			}
			if v != i {
				done <- errors.New("value lost or reordered across a ring swap")
				return
			}
		}
		done <- nil
	}()
	for i := uint64(0); i < n; i++ {
		if err := rt.Push(q, i, false); err != nil {
			t.Fatalf("push %d: %v", i, err)
		}
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if cur, _, _ := rt.Depth(q); cur != 0 {
		t.Fatalf("%d values left behind", cur)
	}
}

package main

import (
	"sync"

	"noelle/internal/queue"
)

// queueUnitCosts times internal/queue directly, outside any interpreter:
// what one queue op and one signal hand-off cost on this host. A lowered
// pipeline's ops times these should account for most of what it runs
// slower than the original.
func queueUnitCosts(r *run) {
	const values = 1_000_000
	const handoffs = 200_000

	// One goroutine pushing and popping its own queue: the op's path with
	// no contention and no parking.
	rt := queue.NewRuntime()
	q := rt.CreateQueue(0)
	d := r.sp.timed("queue.same_goroutine", 0, 0, func() {
		for i := 0; i < values; i++ {
			err := rt.Push(q, uint64(i), false)
			v, err2 := rt.Pop(q, false)
			if err != nil || err2 != nil || v != uint64(i) {
				r.check(false, "queue round trip %d: got %d, errors %v %v", i, v, err, err2)
				return
			}
		}
	})
	r.set("queue.ns_per_op_same_goroutine", float64(d.Nanoseconds())/(2*values))

	// Single producer, single consumer over a default-capacity queue, as a
	// DSWP stage pair uses it. Both lanes do one op per value at the same
	// time, so the wall per value is the cost of an op as a lane sees it.
	q = rt.CreateQueue(0)
	d = r.sp.timed("queue.spsc", 0, 0, func() {
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < values; i++ {
				if err := rt.Push(q, uint64(i), true); err != nil {
					return
				}
			}
		}()
		var sum uint64
		for i := 0; i < values; i++ {
			v, err := rt.Pop(q, true)
			if err != nil {
				break
			}
			sum += v
		}
		wg.Wait()
		r.check(sum == values*(values-1)/2, "SPSC queue delivered sum %d", sum)
	})
	r.set("queue.ns_per_op_spsc", float64(d.Nanoseconds())/values)

	// Two goroutines passing a ticket back and forth over two signals, as
	// consecutive HELIX iterations do: each hand-off is a fire on one side
	// and a wait returning on the other.
	ping, pong := rt.CreateSignal(0), rt.CreateSignal(0)
	d = r.sp.timed("queue.signal_pingpong", 0, 0, func() {
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for t := int64(1); t <= handoffs; t++ {
				if rt.Wait(ping, t, true) != nil || rt.Fire(pong, t) != nil {
					return
				}
			}
		}()
		ok := true
		for t := int64(1); t <= handoffs && ok; t++ {
			ok = rt.Fire(ping, t) == nil && rt.Wait(pong, t, true) == nil
		}
		wg.Wait()
		r.check(ok, "signal ping-pong failed")
	})
	r.set("queue.ns_per_signal_handoff", float64(d.Nanoseconds())/(2*handoffs))
}

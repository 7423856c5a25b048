// Package queue is the inter-worker communication runtime behind NOELLE's
// parallelization tools (paper Section 3): bounded queues carry
// cross-stage values between DSWP pipeline stages, and ticket signals
// order HELIX sequential segments across iterations. One Runtime is
// attached to each interpreter image; the transformed IR reaches it
// through the noelle_queue_* / noelle_signal_* externs (internal/interp
// registers them, and its compiled tier calls Push/Pop/PushN/PopN/Wait/
// Fire directly from first-class ops), addressing queues and signals by
// the integer handles returned at creation time.
//
// Blocking discipline: operations issued by parallel dispatch workers
// block (a full queue exerts backpressure on its producer, an empty one
// holds its consumer back, a signal holds a worker until its ticket comes
// up). Operations issued by a sequential execution context must never
// block — the sequential fallback runs workers to completion one after
// another, so a blocked operation would deadlock the whole run.
// Sequentially, pushes beyond capacity grow the buffer instead, and a pop
// or wait that would block is a deterministic error (the module is
// malformed: its communication pattern cannot replay in worker order).
//
// What an operation costs. A queue is a power-of-two ring with one lock
// per side: pushes take the producer lock, pops the consumer lock, and no
// operation takes both, so the two lanes of a stage pair never wait for
// each other's critical section. Each side publishes its index (tail,
// head) with an atomic store, on a cache line of its own, and keeps a
// cached copy of the other side's index that it re-reads only when the
// copy says "full" or "empty" — in steady state an operation touches only
// its own side's lines. Push and pop counts are those two indices, so
// Stats sums them and no operation updates a runtime-wide counter. The
// ring is allocated on first use and doubles when a push finds it full
// below the backpressure bound (always, for non-blocking pushes): growth
// copies the live elements into a new ring and swaps one atomic pointer,
// which a concurrent consumer picks up on its next pop.
//
// PushN and PopN move a slice of values as if by that many pushes or pops
// — one FIFO whichever form moved a value, the same errors, the same
// counts in Stats — for the cost of one: one lock round, one copy (two
// when the run wraps the ring) and one index publication per piece. A
// blocking PushN waits until the queue has room for its whole piece, so
// the consumer sees a chunk arrive at once rather than trickle in, and
// cuts a slice longer than the capacity into capacity-sized pieces, so
// any capacity down to 1 moves any slice. A non-blocking PushN is one
// piece and grows the ring as many doublings as it takes. A PopN takes
// whatever is there and waits only while the queue is empty, until its
// slice is full; it comes back short only from a queue that was closed
// and ran dry, which is how the last, partial chunk of a DSWP stream
// ends. The lowered pipelines move staging buffers with them, once per
// chunk of iterations instead of once per value. Handles resolve
// through snapshots of the creation-ordered tables behind atomic
// pointers, and the abort flag is one more atomic pointer, so the lookup
// in front of every operation takes no lock either. The locks stay
// because the implementation is safe for any number of concurrent users
// of one queue, not only the single producer and single consumer the
// parallelizers generate.
//
// Waiting is spin-then-park, with no lock held. An operation that must
// wait first polls its condition a few dozen times back to back; a signal
// wait then polls some more with a yield of the processor between polls
// (a queue wait does not: see spinPolls for why the two differ). Only if
// the condition still does not hold does the operation park on its
// queue's or signal's one cond var, after raising that object's sleeper
// count. The side that changes the condition checks the sleeper count —
// one load, on a line nobody writes while nobody sleeps — and broadcasts
// only when it is non-zero. ParkStats counts exactly the parks: an
// operation is counted as it goes to sleep on the cond var, and the time
// it slept is added when it wakes. Waits that the spin phase absorbed are
// in neither number (a span tracer around the operation sees them).
//
// Teardown is deterministic: Abort releases every waiting operation,
// spinning or parked, with ErrAborted, so when one dispatch worker fails
// the rest cannot stay blocked forever; closing a queue releases
// consumers blocked on it with ErrClosed once drained, and producers
// blocked on it at once.
package queue

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// ErrAborted is returned by every operation after the runtime is torn
// down (a dispatch worker failed and the dispatcher aborted its tree).
var ErrAborted = errors.New("queue: runtime aborted")

// ErrClosed is returned by pushes to a closed queue and by pops of a
// closed queue that has been fully drained.
var ErrClosed = errors.New("queue: closed")

// DefaultCapacity bounds a queue when its creator passes no (or a
// non-positive) capacity.
const DefaultCapacity = 256

// minRing is the size of a queue's first ring; growth doubles from here.
const minRing = 8

// cacheLine separates fields written by different goroutines.
const cacheLine = 64

// Runtime owns every queue and signal of one execution image. Handles are
// indices into the creation-ordered tables; creation from a single
// context (the transformed pre-headers run in the dispatching context)
// is therefore deterministic.
type Runtime struct {
	// The handle tables are snapshots: a lookup loads the pointer and
	// indexes, a creation (under createMu) publishes a new slice header.
	// Headers share one append-only backing array while it has room —
	// a slot past an old header's length is invisible through it — so
	// creating n handles copies O(n) pointers in total, not O(n²).
	createMu sync.Mutex
	queues   atomic.Pointer[[]*Queue]
	signals  atomic.Pointer[[]*Signal]

	// aborted holds the teardown error (nil while healthy).
	aborted atomic.Pointer[error]

	// Park counters: how often (and for how long) operations actually
	// entered a cond-wait. Touched only on the parking path.
	pushParks  atomic.Int64
	pushParkNS atomic.Int64
	popParks   atomic.Int64
	popParkNS  atomic.Int64
	waitParks  atomic.Int64
	waitParkNS atomic.Int64
}

// ParkStats is the runtime's cumulative blocking profile: counts of
// operations that parked on a cond var and the total nanoseconds they
// spent parked, split by operation kind. A park is counted when it
// starts and timed when it ends; a wait that ended while the operation
// was still spinning is not a park.
type ParkStats struct {
	PushParks, PushParkNS int64
	PopParks, PopParkNS   int64
	WaitParks, WaitParkNS int64
}

// ParkStats returns the cumulative blocking profile.
func (rt *Runtime) ParkStats() ParkStats {
	return ParkStats{
		PushParks: rt.pushParks.Load(), PushParkNS: rt.pushParkNS.Load(),
		PopParks: rt.popParks.Load(), PopParkNS: rt.popParkNS.Load(),
		WaitParks: rt.waitParks.Load(), WaitParkNS: rt.waitParkNS.Load(),
	}
}

// NewRuntime returns an empty runtime.
func NewRuntime() *Runtime { return &Runtime{} }

// parker is the waiting half of a queue or signal: bounded spinning, then
// a cond-wait that the other side's wake reaches only when someone
// sleeps.
type parker struct {
	sleepers atomic.Int32
	mu       sync.Mutex
	cond     sync.Cond // L is &mu
}

// Spin budget of one wait: spinPolls polls of the condition back to back
// (well under a microsecond), then as many more as the caller allows with
// a runtime.Gosched between them (tens of microseconds, and on a host
// with fewer processors than lanes the awaited goroutine gets to run),
// then the park.
//
// Signals get the yields, queues do not. A signal wait is a hand-off on
// the critical path — the next HELIX iteration cannot start before it
// returns — so staying runnable through a short gap beats a futex round
// trip per iteration. A queue consumer that finds nothing is ahead of its
// producer: while it sleeps values accumulate, and once woken it drains
// them off its cached index without touching the producer's lines, so
// parking early batches the pipeline, whereas polling pulls the tail and
// slot lines away from the producer on every value. Measured on the
// benchmark's 2-vCPU host: 32 yields take helix_pipe's run_ms from about
// 120 ms to about 95 ms, and cost dswp_pipe 35 ms -> 43 ms.
const (
	spinPolls    = 32
	signalYields = 32
)

// await returns once ready reports true. If it has to park, it counts the
// park in parks as it goes to sleep and adds the time slept to parkNS on
// the way out. ready must read only atomics: it runs without any lock
// while spinning.
func (p *parker) await(yields int, parks, parkNS *atomic.Int64, ready func() bool) {
	for i := 0; i < spinPolls+yields; i++ {
		if ready() {
			return
		}
		if i >= spinPolls {
			runtime.Gosched()
		}
	}
	// Raise the sleeper count before the check under mu: a waker stores
	// its change and then loads the count, so either it sees this sleeper
	// and broadcasts under mu, or the check below sees its change.
	p.sleepers.Add(1)
	p.mu.Lock()
	if !ready() {
		parks.Add(1)
		start := time.Now()
		for !ready() {
			p.cond.Wait()
		}
		parkNS.Add(time.Since(start).Nanoseconds())
	}
	p.mu.Unlock()
	p.sleepers.Add(-1)
}

// wake releases the parked waiters, if any, to re-check their conditions.
// Call it after the change they wait for is stored.
func (p *parker) wake() {
	if p.sleepers.Load() != 0 {
		p.mu.Lock()
		p.cond.Broadcast()
		p.mu.Unlock()
	}
}

// ring is one generation of a queue's buffer; len(data) is a power of two.
type ring struct {
	data []uint64
	mask uint64
}

// Queue is a bounded FIFO of raw 8-byte values. The parallelizers
// generate single-producer single-consumer usage (one pipeline stage
// pushes, the next pops), but the implementation is safe for any number
// of concurrent users.
//
// Element i of the stream lives in slot i&mask of the ring. tail is the
// number of values ever pushed, head the number ever popped; both only
// grow.
type Queue struct {
	// Read by both sides on every operation, written rarely.
	cap    uint64               // backpressure bound for blocking pushes
	ring   atomic.Pointer[ring] // nil before the first push and once closed and drained
	closed atomic.Bool          // set under prod.mu, so no push is in flight once it reads true
	park   parker

	_ [cacheLine]byte
	// Producer side: everything a push writes except the published tail.
	prod struct {
		mu        sync.Mutex
		tail      uint64 // == tail.Load() while mu is held
		headCache uint64 // a past value of head
		depthMax  uint64
	}
	_    [cacheLine]byte
	tail atomic.Uint64
	_    [cacheLine]byte
	// Consumer side, likewise.
	cons struct {
		mu        sync.Mutex
		head      uint64 // == head.Load() while mu is held
		tailCache uint64 // a past value of tail
	}
	_    [cacheLine]byte
	head atomic.Uint64
	_    [cacheLine]byte
}

// Signal is a monotonic ticket counter: Wait(t) holds until the counter
// reaches t, Fire(t) advances it to at least t. HELIX guards each
// sequential segment with one signal whose tickets are iteration indices.
type Signal struct {
	park parker

	_ [cacheLine]byte
	// A HELIX worker waits for its ticket and then fires the next one, so
	// the counts share the counter's line: whoever updates one is about to
	// own the line for the other anyway.
	counter atomic.Int64
	waits   atomic.Int64
	fires   atomic.Int64
	_       [cacheLine]byte
}

// snapshot returns the table as of now.
func snapshot[T any](table *atomic.Pointer[[]*T]) []*T {
	if p := table.Load(); p != nil {
		return *p
	}
	return nil
}

// appendHandle publishes a table one handle longer and returns h's index.
func appendHandle[T any](rt *Runtime, table *atomic.Pointer[[]*T], h *T) int64 {
	rt.createMu.Lock()
	defer rt.createMu.Unlock()
	grown := append(snapshot(table), h)
	table.Store(&grown)
	return int64(len(grown) - 1)
}

func lookup[T any](table *atomic.Pointer[[]*T], id int64) *T {
	if t := snapshot(table); uint64(id) < uint64(len(t)) {
		return t[id]
	}
	return nil
}

// CreateQueue allocates a queue bounded at capacity (non-positive means
// DefaultCapacity) and returns its handle.
func (rt *Runtime) CreateQueue(capacity int) int64 {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	q := &Queue{cap: uint64(capacity)}
	q.park.cond.L = &q.park.mu
	return appendHandle(rt, &rt.queues, q)
}

// CreateSignal allocates a signal whose counter starts at start and
// returns its handle.
func (rt *Runtime) CreateSignal(start int64) int64 {
	s := &Signal{}
	s.counter.Store(start)
	s.park.cond.L = &s.park.mu
	return appendHandle(rt, &rt.signals, s)
}

func (rt *Runtime) queue(id int64) (*Queue, error) {
	if err := rt.abortErr(); err != nil {
		return nil, err
	}
	if q := lookup(&rt.queues, id); q != nil {
		return q, nil
	}
	return nil, fmt.Errorf("queue: invalid queue handle %d", id)
}

func (rt *Runtime) signal(id int64) (*Signal, error) {
	if err := rt.abortErr(); err != nil {
		return nil, err
	}
	if s := lookup(&rt.signals, id); s != nil {
		return s, nil
	}
	return nil, fmt.Errorf("queue: invalid signal handle %d", id)
}

// abortErr returns the teardown error, or nil while healthy.
func (rt *Runtime) abortErr() error {
	if p := rt.aborted.Load(); p != nil {
		return *p
	}
	return nil
}

// Abort tears the runtime down: every current and future operation
// returns ErrAborted (wrapping cause when non-nil), and every waiting
// goroutine is released. Aborting twice keeps the first cause.
func (rt *Runtime) Abort(cause error) {
	err := error(ErrAborted)
	if cause != nil {
		err = fmt.Errorf("%w (cause: %v)", ErrAborted, cause)
	}
	rt.aborted.CompareAndSwap(nil, &err)
	// Spinning waiters poll the flag; parked ones need the broadcast. A
	// handle created after these loads is not waited on yet, and its first
	// operation will see the flag.
	for _, q := range snapshot(&rt.queues) {
		q.park.wake()
	}
	for _, s := range snapshot(&rt.signals) {
		s.park.wake()
	}
}

// Push appends v to queue id. Blocking pushes wait while the queue is at
// capacity; non-blocking pushes grow the buffer instead (the sequential
// fallback's unbounded mode). Pushing to a closed queue is an error.
func (rt *Runtime) Push(id int64, v uint64, block bool) error {
	q, err := rt.queue(id)
	if err != nil {
		return err
	}
	p := &q.prod
	p.mu.Lock()
	for {
		if q.closed.Load() {
			p.mu.Unlock()
			return fmt.Errorf("queue %d: push: %w", id, ErrClosed)
		}
		if !block || p.tail-p.headCache < q.cap || q.refreshHead() < q.cap {
			break
		}
		// Wait with the lock released: Close and other producers need it.
		p.mu.Unlock()
		q.park.await(0, &rt.pushParks, &rt.pushParkNS, func() bool {
			return q.tail.Load()-q.head.Load() < q.cap || q.closed.Load() || rt.aborted.Load() != nil
		})
		if err := rt.abortErr(); err != nil {
			return err
		}
		p.mu.Lock()
	}
	r := q.ring.Load()
	if r == nil || p.tail-p.headCache > r.mask {
		if q.refreshHead(); r == nil || p.tail-p.headCache > r.mask {
			r = q.grow(r, 0)
		}
	}
	r.data[p.tail&r.mask] = v
	p.tail++
	q.tail.Store(p.tail)
	p.mu.Unlock()
	q.park.wake()
	return nil
}

// refreshHead re-reads the consumer's index into the producer's cache and
// returns the queue's depth. That depth is exact at this instant, which
// makes these the moments the high-water mark is sampled at. Caller holds
// prod.mu.
func (q *Queue) refreshHead() uint64 {
	p := &q.prod
	p.headCache = q.head.Load()
	depth := p.tail - p.headCache
	if depth > p.depthMax {
		p.depthMax = depth
	}
	return depth
}

// grow replaces a full (or absent) ring with the next power of two that
// holds need elements (at least twice the old size), carrying over the live
// ones. A consumer still holding the old ring reads slots this never writes
// again. Caller holds prod.mu and has just refreshed headCache.
func (q *Queue) grow(old *ring, need uint64) *ring {
	n := uint64(minRing)
	if old != nil {
		n = 2 * uint64(len(old.data))
	}
	for n < need {
		n *= 2
	}
	r := &ring{data: make([]uint64, n), mask: n - 1}
	for i := q.prod.headCache; i != q.prod.tail; i++ {
		r.data[i&r.mask] = old.data[i&old.mask]
	}
	q.ring.Store(r)
	return r
}

// PushN appends vs to queue id, in order, as if by len(vs) pushes, but
// with one wait, one copy and one index publication per piece. A
// non-blocking push is one piece. A blocking push cuts vs into pieces of at
// most the capacity and waits until the queue has room for the whole of the
// next piece, so a slice longer than the capacity still goes through, one
// capacity-full at a time. Pushing to a closed queue is an error; values of
// earlier pieces stay pushed.
func (rt *Runtime) PushN(id int64, vs []uint64, block bool) error {
	q, err := rt.queue(id)
	if err != nil {
		return err
	}
	p := &q.prod
	for len(vs) > 0 {
		n := uint64(len(vs))
		if block && n > q.cap {
			n = q.cap
		}
		p.mu.Lock()
		for {
			if q.closed.Load() {
				p.mu.Unlock()
				return fmt.Errorf("queue %d: push: %w", id, ErrClosed)
			}
			if !block || p.tail-p.headCache+n <= q.cap || q.refreshHead()+n <= q.cap {
				break
			}
			p.mu.Unlock()
			q.park.await(0, &rt.pushParks, &rt.pushParkNS, func() bool {
				return q.tail.Load()-q.head.Load()+n <= q.cap || q.closed.Load() || rt.aborted.Load() != nil
			})
			if err := rt.abortErr(); err != nil {
				return err
			}
			p.mu.Lock()
		}
		r := q.ring.Load()
		if r == nil || p.tail-p.headCache+n > uint64(len(r.data)) {
			if depth := q.refreshHead(); r == nil || depth+n > uint64(len(r.data)) {
				r = q.grow(r, depth+n)
			}
		}
		at := p.tail & r.mask
		copy(r.data[at:], vs[:n])
		if room := uint64(len(r.data)) - at; room < n {
			copy(r.data, vs[room:n]) // the piece wraps
		}
		p.tail += n
		q.tail.Store(p.tail)
		p.mu.Unlock()
		q.park.wake()
		vs = vs[n:]
	}
	return nil
}

// Pop removes the oldest value of queue id. Blocking pops wait while the
// queue is empty and open; a non-blocking pop of an empty queue is a
// deterministic error (sequential execution has no producer left to run).
// Popping a drained closed queue returns ErrClosed in either mode.
func (rt *Runtime) Pop(id int64, block bool) (uint64, error) {
	q, err := rt.queue(id)
	if err != nil {
		return 0, err
	}
	c := &q.cons
	c.mu.Lock()
	for c.head == c.tailCache {
		// closed before tail: every push that succeeded published its
		// tail before Close set the flag, so closed and still empty means
		// drained for good.
		closed := q.closed.Load()
		c.tailCache = q.tail.Load()
		if c.head != c.tailCache {
			break
		}
		c.mu.Unlock()
		if closed {
			return 0, fmt.Errorf("queue %d: pop: %w", id, ErrClosed)
		}
		if !block {
			return 0, fmt.Errorf("queue %d: pop from empty queue in sequential execution", id)
		}
		q.park.await(0, &rt.popParks, &rt.popParkNS, func() bool {
			return q.head.Load() != q.tail.Load() || q.closed.Load() || rt.aborted.Load() != nil
		})
		if err := rt.abortErr(); err != nil {
			return 0, err
		}
		c.mu.Lock()
	}
	// Loaded after the tail that covers c.head: this ring, or a later
	// generation that copied the element over.
	r := q.ring.Load()
	v := r.data[c.head&r.mask]
	c.head++
	q.head.Store(c.head)
	if c.head == c.tailCache && q.closed.Load() && c.head == q.tail.Load() {
		// Last value of a closed queue. Loops entered repeatedly create
		// fresh queues per entry; a closed-and-drained queue keeps only
		// its header so the rings do not accumulate across invocations.
		q.ring.Store(nil)
	}
	c.mu.Unlock()
	q.park.wake()
	return v, nil
}

// PopN removes the oldest values of queue id into dst, in order, as if by
// len(dst) pops, but taking everything that is there with one copy and one
// index publication, and waiting only while the queue is empty. It returns
// how many values it wrote: fewer than len(dst) only when the queue was
// closed and ran dry first, which is ErrClosed when that left nothing at
// all. A non-blocking pop that runs dry before the close is the same
// deterministic error as Pop's.
func (rt *Runtime) PopN(id int64, dst []uint64, block bool) (int, error) {
	q, err := rt.queue(id)
	if err != nil {
		return 0, err
	}
	c := &q.cons
	got := 0
	for got < len(dst) {
		c.mu.Lock()
		if c.head == c.tailCache {
			closed := q.closed.Load() // before tail: see Pop
			c.tailCache = q.tail.Load()
			if c.head == c.tailCache {
				c.mu.Unlock()
				switch {
				case closed && got > 0:
					return got, nil
				case closed:
					return 0, fmt.Errorf("queue %d: pop: %w", id, ErrClosed)
				case !block:
					return got, fmt.Errorf("queue %d: pop from empty queue in sequential execution", id)
				}
				q.park.await(0, &rt.popParks, &rt.popParkNS, func() bool {
					return q.head.Load() != q.tail.Load() || q.closed.Load() || rt.aborted.Load() != nil
				})
				if err := rt.abortErr(); err != nil {
					return got, err
				}
				continue
			}
		}
		n := min(c.tailCache-c.head, uint64(len(dst)-got))
		r := q.ring.Load() // after the tail that covers these: see Pop
		at := c.head & r.mask
		if copy(dst[got:got+int(n)], r.data[at:]) < int(n) {
			copy(dst[got+len(r.data)-int(at):got+int(n)], r.data) // the run wraps
		}
		c.head += n
		q.head.Store(c.head)
		if c.head == c.tailCache && q.closed.Load() && c.head == q.tail.Load() {
			q.ring.Store(nil) // closed and drained: see Pop
		}
		c.mu.Unlock()
		q.park.wake()
		got += int(n)
	}
	return got, nil
}

// Close marks queue id closed: subsequent pushes fail, and pops drain the
// remaining values before reporting ErrClosed. Closing twice is a no-op.
func (rt *Runtime) Close(id int64) error {
	q, err := rt.queue(id)
	if err != nil {
		return err
	}
	q.prod.mu.Lock()
	q.closed.Store(true)
	if q.head.Load() == q.prod.tail {
		q.ring.Store(nil) // closed empty: see Pop
	}
	q.prod.mu.Unlock()
	q.park.wake()
	return nil
}

// Wait holds until signal id's counter reaches ticket. A non-blocking
// wait whose ticket has not come up is a deterministic error: sequential
// execution fires tickets in order, so an unsatisfied wait means the
// module's signal protocol cannot replay in worker order.
func (rt *Runtime) Wait(id, ticket int64, block bool) error {
	s, err := rt.signal(id)
	if err != nil {
		return err
	}
	if counter := s.counter.Load(); counter < ticket {
		if !block {
			return fmt.Errorf("queue: signal %d wait for ticket %d (counter %d) in sequential execution", id, ticket, counter)
		}
		s.park.await(signalYields, &rt.waitParks, &rt.waitParkNS, func() bool {
			return s.counter.Load() >= ticket || rt.aborted.Load() != nil
		})
		if err := rt.abortErr(); err != nil {
			return err
		}
	}
	s.waits.Add(1)
	return nil
}

// Fire advances signal id's counter to at least ticket and wakes the
// waiters whose tickets are now reached.
func (rt *Runtime) Fire(id, ticket int64) error {
	s, err := rt.signal(id)
	if err != nil {
		return err
	}
	for {
		counter := s.counter.Load()
		if ticket <= counter {
			break
		}
		if s.counter.CompareAndSwap(counter, ticket) {
			s.park.wake()
			break
		}
	}
	s.fires.Add(1)
	return nil
}

// Stats reports the cumulative operation counts (creates covers both
// queues and signals). A queue's pushes and pops are its two indices.
func (rt *Runtime) Stats() (creates, pushes, pops, waits, fires int64) {
	queues, signals := snapshot(&rt.queues), snapshot(&rt.signals)
	for _, q := range queues {
		pushes += int64(q.tail.Load())
		pops += int64(q.head.Load())
	}
	for _, s := range signals {
		waits += s.waits.Load()
		fires += s.fires.Load()
	}
	return int64(len(queues) + len(signals)), pushes, pops, waits, fires
}

// Depth returns queue id's current element count and its high-water mark.
// The mark is sampled where the depth is known exactly: whenever a push
// re-reads the consumer's index (its cached copy said "full"), and here.
// It never exceeds a depth the queue really had; a peak between two
// samples that a concurrent consumer drained again can be missed.
func (rt *Runtime) Depth(id int64) (cur, max int, err error) {
	q, err := rt.queue(id)
	if err != nil {
		return 0, 0, err
	}
	q.prod.mu.Lock()
	defer q.prod.mu.Unlock()
	return int(q.refreshHead()), int(q.prod.depthMax), nil
}

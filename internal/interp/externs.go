package interp

import (
	"errors"
	"fmt"
	"math"

	"noelle/internal/obs"
	"noelle/internal/queue"
)

// Extern function names understood by the interpreter. Benchmarks declare
// the print externs; custom tools inject the runtime hooks.
const (
	ExternPrintI64 = "print_i64"
	ExternPrintF64 = "print_f64"
	// ExternGuard is CARAT's runtime address check: guard(ptr) validates
	// that ptr points into a live allocation.
	ExternGuard = "carat_guard"
	// ExternCallback is COOS's injected OS-routine call.
	ExternCallback = "os_callback"
	// ExternClockSet is Time-Squeezer's clock-period change instruction.
	ExternClockSet = "clock_set"
	// ExternDispatch is the parallel runtime's task dispatcher:
	// dispatch(task, env, nworkers) runs task(env, w, nworkers) for every
	// worker w. Workers execute concurrently over forked execution
	// contexts that share the module's memory image (see parallel.go);
	// Interp.SeqDispatch falls back to sequential worker-order execution.
	ExternDispatch = "noelle_dispatch"

	// Communication runtime externs (backed by internal/queue): bounded
	// SPSC queues carry cross-stage values between DSWP pipeline stages,
	// ticket signals order HELIX sequential segments across iterations.
	// Handles are allocated on the shared image, so every worker context
	// of a dispatch sees the same queues; operations issued by parallel
	// workers block (backpressure / ticket order), operations issued
	// sequentially never block — pushes grow the queue, and a pop or wait
	// that would park is a deterministic error instead of a deadlock.
	ExternQueueCreate  = "noelle_queue_create"  // create(capacity) -> qid
	ExternQueuePush    = "noelle_queue_push"    // push(qid, value)
	ExternQueuePop     = "noelle_queue_pop"     // pop(qid) -> value
	ExternQueuePushN   = "noelle_queue_push_n"  // push_n(qid, buf, n): the n cells at buf, in order
	ExternQueuePopN    = "noelle_queue_pop_n"   // pop_n(qid, buf, n): the next n values into buf
	ExternQueueClose   = "noelle_queue_close"   // close(qid)
	ExternSignalCreate = "noelle_signal_create" // create(start) -> sid
	ExternSignalWait   = "noelle_signal_wait"   // wait(sid, ticket)
	ExternSignalFire   = "noelle_signal_fire"   // fire(sid, ticket)
)

// defaultExternArities is the single source of truth for the argument
// counts of the runtime's default externs. The registrations of
// defaultExterns enforce them dynamically (a wrong-arity call errors
// instead of indexing out of range); ExternArities exports them so the
// static verifier (internal/verify) can reject a wrong-arity call site
// before a single instruction executes.
var defaultExternArities = map[string]int{
	ExternPrintI64:     1,
	ExternPrintF64:     1,
	ExternGuard:        1,
	ExternCallback:     0,
	ExternClockSet:     1,
	ExternDispatch:     3,
	ExternQueueCreate:  1,
	ExternQueuePush:    2,
	ExternQueuePop:     1,
	ExternQueuePushN:   3,
	ExternQueuePopN:    3,
	ExternQueueClose:   1,
	ExternSignalCreate: 1,
	ExternSignalWait:   2,
	ExternSignalFire:   2,
}

// ExternArities returns the registered argument count of every default
// runtime extern, keyed by name. The map is a fresh copy; callers may
// mutate it.
func ExternArities() map[string]int {
	out := make(map[string]int, len(defaultExternArities))
	for name, a := range defaultExternArities {
		out[name] = a
	}
	return out
}

// defaultExterns are the runtime's own host functions, registered with
// their exact arity: a malformed module that declares (and calls) one of
// them with the wrong signature gets an error instead of an
// index-out-of-range panic in the host body. New publishes them all at
// once (registerExterns). Push, pop, their bulk forms, wait and fire are
// also first-class ops of the compiled tier (compile.go binds direct calls
// to them while these registrations stand), so each body is a method both
// call.
var defaultExterns = []externEntry{
	{name: ExternPrintI64, fn: func(it *Interp, args []uint64) (uint64, error) {
		fmt.Fprintf(&it.Output, "%d\n", int64(args[0]))
		return 0, nil
	}},
	{name: ExternPrintF64, fn: func(it *Interp, args []uint64) (uint64, error) {
		fmt.Fprintf(&it.Output, "%g\n", math.Float64frombits(args[0]))
		return 0, nil
	}},
	{name: ExternGuard, fn: func(it *Interp, args []uint64) (uint64, error) {
		it.GuardCalls++
		if !it.ValidAddress(int64(args[0])) {
			it.GuardFailures++
		}
		return 0, nil
	}},
	{name: ExternCallback, fn: func(it *Interp, args []uint64) (uint64, error) {
		it.Callbacks++
		return 0, nil
	}},
	{name: ExternClockSet, fn: func(it *Interp, args []uint64) (uint64, error) {
		it.ClockSets++
		return 0, nil
	}},
	{name: ExternDispatch, fn: func(it *Interp, args []uint64) (uint64, error) {
		return it.dispatch(args)
	}},
	{name: ExternQueueCreate, fn: func(it *Interp, args []uint64) (uint64, error) {
		capacity := int(int64(args[0]))
		if it.QueueCap > 0 {
			capacity = it.QueueCap // runtime override (noelle-bin -queue-cap)
		}
		return uint64(it.img.comm.CreateQueue(capacity)), nil
	}},
	{name: ExternQueuePush, op: cQueuePush, fn: func(it *Interp, args []uint64) (uint64, error) {
		return 0, it.queuePush(int64(args[0]), args[1])
	}},
	{name: ExternQueuePop, op: cQueuePop, fn: func(it *Interp, args []uint64) (uint64, error) {
		return it.queuePop(int64(args[0]))
	}},
	{name: ExternQueuePushN, op: cQueuePushN, fn: func(it *Interp, args []uint64) (uint64, error) {
		return 0, it.queuePushN(int64(args[0]), int64(args[1]), int64(args[2]))
	}},
	{name: ExternQueuePopN, op: cQueuePopN, fn: func(it *Interp, args []uint64) (uint64, error) {
		return 0, it.queuePopN(int64(args[0]), int64(args[1]), int64(args[2]))
	}},
	{name: ExternQueueClose, fn: func(it *Interp, args []uint64) (uint64, error) {
		return 0, it.img.comm.Close(int64(args[0]))
	}},
	{name: ExternSignalCreate, fn: func(it *Interp, args []uint64) (uint64, error) {
		return uint64(it.img.comm.CreateSignal(int64(args[0]))), nil
	}},
	{name: ExternSignalWait, op: cSignalWait, fn: func(it *Interp, args []uint64) (uint64, error) {
		return 0, it.signalWait(int64(args[0]), int64(args[1]))
	}},
	{name: ExternSignalFire, op: cSignalFire, fn: func(it *Interp, args []uint64) (uint64, error) {
		return 0, it.img.comm.Fire(int64(args[0]), int64(args[1]))
	}},
}

func init() {
	for i := range defaultExterns {
		defaultExterns[i].arity = defaultExternArities[defaultExterns[i].name]
	}
}

// queuePush is noelle_queue_push: parallel workers of a fully resident
// dispatch push with backpressure, every other context grows the queue.
//
// Tracing fast path, here and in queuePop and signalWait: rec is nil
// unless a Tracer is attached, so the untraced cost is one pointer
// comparison — no clock reads, no allocations, no atomics (proved by
// BenchmarkQueueExterns and the allocation-count test in
// trace_internal_test.go). Spans time the whole operation: for a blocked
// producer that is exactly the backpressure stall the timeline should
// show.
func (it *Interp) queuePush(id int64, v uint64) error {
	it.QueuePushes++
	if r := it.rec; r != nil {
		start := r.Clock()
		err := it.img.comm.Push(id, v, it.pushBlocks)
		r.Record(obs.SpanQueuePush, id, start)
		return err
	}
	return it.img.comm.Push(id, v, it.pushBlocks)
}

// queuePop is noelle_queue_pop: parallel workers block while the queue is
// empty, a sequential context fails instead.
func (it *Interp) queuePop(id int64) (uint64, error) {
	it.QueuePops++
	if r := it.rec; r != nil {
		start := r.Clock()
		v, err := it.img.comm.Pop(id, it.parWorker)
		r.Record(obs.SpanQueuePop, id, start)
		return v, err
	}
	return it.img.comm.Pop(id, it.parWorker)
}

// maxBulkValues bounds the count of one bulk queue operation, so a hostile
// count cannot make a single instruction touch memory without bound.
const maxBulkValues = 1 << 20

// bulkRun returns the cells of the buffer [addr, addr+8n) that lie in
// addr's page: the piece of it a bulk operation can hand to the queue
// runtime as one slice, with no copy through the context. checkBulk has
// put the whole buffer inside memory.
func (it *Interp) bulkRun(addr, n int64) []uint64 {
	cell := uint64(addr) >> 3
	off := cell % pageCells
	return it.page(cell)[off:min(off+uint64(n), pageCells)]
}

// checkBulk rejects a count beyond maxBulkValues and a buffer that does
// not lie wholly inside memory, before the operation moves any value.
func checkBulk(name string, addr, n int64) error {
	if n < 0 || n > maxBulkValues || !inMemory(addr) || uint64(addr)>>3+uint64(n) > memCells {
		return fmt.Errorf("interp: @%s: buffer %d, count %d out of range", name, addr, n)
	}
	return nil
}

// queuePushN is noelle_queue_push_n: the n cells at addr go to queue id in
// order, blocking as queuePush does. One operation however many values:
// one count in QueuePushes, one span, the extern's fixed cost (charged by
// the caller) plus QueueBulkValue cycles per value.
func (it *Interp) queuePushN(id, addr, n int64) error {
	it.QueuePushes++
	if err := checkBulk(ExternQueuePushN, addr, n); err != nil {
		return err
	}
	it.Cycles += n * it.Cost.QueueBulkValue
	if r := it.rec; r != nil {
		start := r.Clock()
		err := it.pushRuns(id, addr, n)
		r.Record(obs.SpanQueuePush, id, start)
		return err
	}
	return it.pushRuns(id, addr, n)
}

func (it *Interp) pushRuns(id, addr, n int64) error {
	for n > 0 {
		run := it.bulkRun(addr, n)
		if err := it.img.comm.PushN(id, run, it.pushBlocks); err != nil {
			return err
		}
		addr, n = addr+8*int64(len(run)), n-int64(len(run))
	}
	return nil
}

// queuePopN is noelle_queue_pop_n: the next n values of queue id land in
// the cells at addr, blocking as queuePop does. A queue closed and drained
// before the n-th value leaves the rest of the buffer alone (the last
// chunk of a stream is as long as the stream's tail); the per-value charge
// covers the values that arrived.
func (it *Interp) queuePopN(id, addr, n int64) error {
	it.QueuePops++
	if err := checkBulk(ExternQueuePopN, addr, n); err != nil {
		return err
	}
	if r := it.rec; r != nil {
		start := r.Clock()
		err := it.popRuns(id, addr, n)
		r.Record(obs.SpanQueuePop, id, start)
		return err
	}
	return it.popRuns(id, addr, n)
}

func (it *Interp) popRuns(id, addr, n int64) error {
	for moved := int64(0); n > 0; {
		run := it.bulkRun(addr, n)
		got, err := it.img.comm.PopN(id, run, it.parWorker)
		moved += int64(got)
		it.Cycles += int64(got) * it.Cost.QueueBulkValue
		if got < len(run) {
			if moved > 0 && errors.Is(err, queue.ErrClosed) {
				return nil // dry at a page boundary of the buffer: short, as within a page
			}
			return err
		}
		addr, n = addr+8*int64(len(run)), n-int64(len(run))
	}
	return nil
}

// signalWait is noelle_signal_wait, blocking as queuePop does.
func (it *Interp) signalWait(id, ticket int64) error {
	it.SignalWaits++
	if r := it.rec; r != nil {
		start := r.Clock()
		err := it.img.comm.Wait(id, ticket, it.parWorker)
		r.Record(obs.SpanSignalWait, id, start)
		return err
	}
	return it.img.comm.Wait(id, ticket, it.parWorker)
}

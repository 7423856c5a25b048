// Parallel dispatch runtime: the noelle_dispatch extern runs each task
// invocation in its own goroutine over a forked worker context. Worker
// contexts have private call stacks, step/cycle counters, and output
// buffers, and share the module's memory image through the
// concurrency-safe page table; after the barrier the parent aggregates
// every worker in worker order, so a parallel dispatch is observationally
// identical to the sequential fallback (same output bytes, same Steps and
// Cycles totals, same memory image). Hooked contexts, and contexts
// serving an observation request (profiling, cost attribution), dispatch
// sequentially: hooks keep the canonical order, counters one writer.

package interp

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"noelle/internal/ir"
	"noelle/internal/obs"
	"noelle/internal/queue"
)

// maxDispatchFanout bounds a single dispatch's worker count. Real modules
// dispatch over the core count baked in at transform time; a worker count
// this large can only come from a malformed or hostile module, and
// erroring out beats allocating per-worker state for it.
const maxDispatchFanout = 1 << 20

// stepPool is the shared step budget of one dispatch tree: every worker
// (and nested dispatch workers) draws chunks from the same pool, so the
// whole tree executes at most the parent's unspent budget — matching the
// sequential fallback's cumulative bound — without an atomic operation
// per instruction.
type stepPool struct {
	remaining atomic.Int64
	chunk     int64
}

// newStepPool sizes chunks so even a tiny budget splits across workers
// (stranding is at most one chunk per worker).
func newStepPool(budget, nworkers int64) *stepPool {
	chunk := budget / (8 * nworkers)
	if chunk < 64 {
		chunk = 64
	}
	if chunk > 65536 {
		chunk = 65536
	}
	p := &stepPool{chunk: chunk}
	p.remaining.Store(budget)
	return p
}

// take grants up to one chunk of steps, or 0 when the pool is exhausted.
// Accounting is exact: failed takes debit nothing, the final partial
// chunk grants precisely what remains, and refunds (Add of a worker's
// unused grant) become available to later takers.
func (p *stepPool) take() int64 {
	for {
		rem := p.remaining.Load()
		if rem <= 0 {
			return 0
		}
		grant := p.chunk
		if grant > rem {
			grant = rem
		}
		if p.remaining.CompareAndSwap(rem, rem-grant) {
			return grant
		}
	}
}

// extendStepBudget is the slow path of the execution loop's step check:
// worker contexts top up from the dispatch tree's shared pool; root
// contexts (no pool) are simply out of budget. It also absorbs the case
// where an inner frame already extended the budget (the caller's cached
// limit was stale).
func (it *Interp) extendStepBudget() (int64, bool) {
	if limit := it.stepBudget(); it.Steps < limit {
		return limit, true
	}
	if it.pool == nil {
		return 0, false
	}
	grant := it.pool.take()
	if grant == 0 {
		return 0, false
	}
	it.MaxSteps = it.Steps + grant
	return it.MaxSteps, true
}

// fork creates a worker context sharing this context's image. The worker
// inherits the dispatch configuration; it starts with no step grant and
// draws from pool as it executes. Workers never carry hooks or probes: a
// hooked or observing context dispatches sequentially instead (see
// dispatch).
// pushBlocks enables bounded (backpressuring) queue pushes; it is only
// safe when every worker of the dispatch is resident on its own
// goroutine (see dispatchParallel). rec is the lane's span recorder (nil
// when tracing is off) and stack its stack region: every worker a lane
// claims uses both in turn, its frames all popped when it returns.
func (it *Interp) fork(pool *stepPool, pushBlocks bool, rec *obs.Recorder, stack int64) *Interp {
	return &Interp{
		Mod:        it.Mod,
		ExecConfig: it.ExecConfig,
		rec:        rec,
		img:        it.img,
		leaves:     it.leaves,
		sp:         stack,
		stackBase:  stack,
		stackLimit: stack + laneStackBytes,
		parent:     it,
		pool:       pool,
		parWorker:  true, // pops and waits from workers block
		pushBlocks: pushBlocks,
		MaxSteps:   -1, // nothing granted yet: first step hits the pool
	}
}

// tally is what a finished worker leaves behind for the barrier: the
// counters and output absorb folds into the parent. The context itself —
// value stack, configuration — is garbage the moment its Call
// returns, so a dispatch holds one tally per worker, not one context.
type tally struct {
	steps, cycles                                   int64
	guardCalls, guardFailures, callbacks, clockSets int64
	queuePushes, queuePops, signalWaits             int64
	output                                          string
}

func (it *Interp) tally() tally {
	return tally{
		it.Steps, it.Cycles,
		it.GuardCalls, it.GuardFailures, it.Callbacks, it.ClockSets,
		it.QueuePushes, it.QueuePops, it.SignalWaits,
		it.Output.String(),
	}
}

// absorb folds a finished worker into the parent: counters and output are
// accumulated. Callers absorb workers in worker order; the result is
// byte-identical to a sequential dispatch.
func (it *Interp) absorb(w tally) {
	if it.pool != nil && it.MaxSteps > 0 {
		// The absorber is itself a worker holding an active grant: the
		// sub-workers' steps were already debited from the shared pool by
		// their own takes, so shift the local quota with them — otherwise
		// the next budget check would discard (and strand) the unused
		// remainder of the current grant.
		it.MaxSteps += w.steps
	}
	it.Steps += w.steps
	it.Cycles += w.cycles
	it.GuardCalls += w.guardCalls
	it.GuardFailures += w.guardFailures
	it.Callbacks += w.callbacks
	it.ClockSets += w.clockSets
	it.QueuePushes += w.queuePushes
	it.QueuePops += w.queuePops
	it.SignalWaits += w.signalWaits
	it.Output.WriteString(w.output)
}

// hooked reports whether any observation hook is installed.
func (it *Interp) hooked() bool {
	return it.InstrHook != nil || it.BlockHook != nil || it.EdgeHook != nil
}

// dispatch implements the noelle_dispatch extern: run task(env, w,
// nworkers) for every worker w in [0, nworkers). Workers run concurrently
// on real cores unless SeqDispatch is set, there is at most one worker,
// a hook is installed or the context serves an observation request —
// hooked runs take the sequential path so hooks observe the canonical
// sequential event order without the runtime buffering O(steps) of
// events per worker, observing ones (profiling, cost attribution) so a
// request's counters and rows have one writer; the observable result is
// identical either way.
func (it *Interp) dispatch(args []uint64) (uint64, error) {
	idx := int64(args[0])
	if idx < 0 || idx >= int64(len(it.img.fnTable)) {
		return 0, fmt.Errorf("interp: dispatch of invalid function id %d", idx)
	}
	task := it.img.fnTable[idx]
	nworkers := int64(args[2])
	if nworkers < 0 || nworkers > maxDispatchFanout {
		return 0, fmt.Errorf("interp: dispatch with unreasonable worker count %d", nworkers)
	}
	// Tracing: the dispatch span brackets the whole fan-out (either path)
	// on the dispatching context's recorder, keyed by a run-unique
	// sequence number so task spans group under their dispatch.
	var seq int64
	var dStart time.Time
	it.initRecorder()
	if it.rec != nil {
		seq = it.img.dispatchSeq.Add(1)
		dStart = it.rec.Clock()
	}
	if it.SeqDispatch || nworkers <= 1 || it.hooked() || it.observing() {
		var order []int64
		if it.WorkerOrder != nil {
			if order = it.WorkerOrder(task, nworkers); order != nil && int64(len(order)) != nworkers {
				return 0, fmt.Errorf("interp: worker order of %d for %d workers", len(order), nworkers)
			}
		}
		for i := int64(0); i < nworkers; i++ {
			w := i
			if order != nil {
				w = order[i]
			}
			if _, err := it.Call(task, []uint64{args[1], uint64(w), args[2]}); err != nil {
				return 0, fmt.Errorf("interp: dispatch worker %d: %w", w, err)
			}
		}
		if it.rec != nil {
			it.rec.Record(obs.SpanDispatch, seq, dStart)
		}
		return 0, nil
	}
	_, err := it.dispatchParallel(task, args[1], nworkers, seq)
	if it.rec != nil {
		it.rec.Record(obs.SpanDispatch, seq, dStart)
	}
	return 0, err
}

// dispatchParallel runs the task's worker invocations across a bounded
// pool of goroutines — at most DispatchWorkers (default GOMAXPROCS) run
// at once, and worker contexts are forked lazily as each invocation is
// claimed and dropped as it returns (its tally stays), so a huge nworkers
// costs a context per concurrent lane plus a tally per worker. All
// workers run to completion (the shared step pool bounds total work by
// the unspent budget) even when one fails; aggregation and error selection happen after the barrier, in
// worker order, so runs are deterministic. seq is the dispatch's trace
// sequence number (0 when tracing is off).
func (it *Interp) dispatchParallel(task *ir.Function, envBits uint64, nworkers, seq int64) (uint64, error) {
	done := make([]tally, nworkers)
	errs := make([]error, nworkers)
	pool := it.pool
	if pool == nil {
		// Root of a dispatch tree: the pool holds this context's unspent
		// budget. Nested dispatches reuse the tree's pool.
		pool = newStepPool(it.stepBudget()-it.Steps, nworkers)
	}
	par := int64(it.DispatchWorkers)
	if par <= 0 {
		par = int64(runtime.GOMAXPROCS(0))
	}
	if par > nworkers {
		par = nworkers
	}
	// Bounded (blocking) pushes are only deadlock-free when every worker
	// is resident on its own goroutine: under a tighter cap, a producer
	// parked on a full queue would wait for a consumer whose worker index
	// is still queued behind the cap. Capped dispatches therefore fall
	// back to growing pushes; pops and waits still block, which stays
	// live because the runtime's protocol flows from lower to higher
	// worker indices and claims are handed out in worker order.
	pushBlocks := par >= nworkers
	// Tracing and stats are per lane (goroutine slot), not per worker
	// index: a dispatch may fan many more worker invocations (a HELIX
	// loop's blocks, a hostile module's 2^20) over a handful of lanes,
	// and the lane is the unit that owns a goroutine — which
	// also makes the recorder single-writer, hence lock-free. Task spans
	// carry the worker index as their arg. Lane stats are collected even
	// untraced (a few field writes per claimed worker, nowhere near the
	// instruction hot path) so per-worker skew is always reportable.
	seqNo := seq
	if seqNo == 0 {
		seqNo = it.img.dispatchSeq.Add(1)
	}
	stacks, err := it.img.stacks.take(int(par))
	if err != nil {
		return 0, err
	}
	defer it.img.stacks.give(stacks)
	laneStats := make([]WorkerStat, par)
	var next atomic.Int64
	var wg sync.WaitGroup
	for g := int64(0); g < par; g++ {
		wg.Add(1)
		go func(g int64) {
			defer wg.Done()
			var rec *obs.Recorder
			if it.rec != nil {
				rec = it.Tracer.NewRecorder(int(seqNo), int(g), fmt.Sprintf("d%d.w%d", seqNo, g))
			}
			laneStats[g] = WorkerStat{Dispatch: int(seqNo), Lane: int(g)}
			for {
				w := next.Add(1) - 1
				if w >= nworkers {
					return
				}
				wk := it.fork(pool, pushBlocks, rec, stacks[g])
				var tStart time.Time
				if rec != nil {
					tStart = rec.Clock()
				}
				_, errs[w] = wk.Call(task, []uint64{envBits, uint64(w), uint64(nworkers)})
				done[w] = wk.tally()
				if rec != nil {
					rec.Record(obs.SpanTask, w, tStart)
				}
				laneStats[g].Claims++
				laneStats[g].Steps += wk.Steps
				laneStats[g].Cycles += wk.Cycles
				if unused := wk.MaxSteps - wk.Steps; wk.MaxSteps > 0 && unused > 0 {
					pool.remaining.Add(unused) // return the stranded grant
				}
				if errs[w] != nil && !errors.Is(errs[w], queue.ErrAborted) {
					// Deterministic teardown: sibling workers may be parked
					// on a queue or signal this worker will never serve.
					// Aborting the communication runtime releases them all
					// (with ErrAborted), so the barrier below is reached.
					it.img.comm.Abort(errs[w])
				}
			}
		}(g)
	}
	wg.Wait()
	claimed := laneStats[:0:0]
	for _, st := range laneStats {
		if st.Claims > 0 {
			claimed = append(claimed, st)
		}
	}
	it.img.recordWorkerStats(claimed)
	for _, w := range done {
		it.absorb(w)
	}
	// Error selection stays deterministic under teardown: ErrAborted
	// failures are echoes of some other worker's root cause, so the
	// lowest-indexed *non-abort* error wins; only if every failure is an
	// echo (impossible today, but cheap to guard) does the lowest abort
	// error surface.
	var abortEcho error
	abortWorker := int64(-1)
	for w, err := range errs {
		if err == nil {
			continue
		}
		if !errors.Is(err, queue.ErrAborted) {
			return 0, fmt.Errorf("interp: dispatch worker %d: %w", w, err)
		}
		if abortEcho == nil {
			abortEcho, abortWorker = err, int64(w)
		}
	}
	if abortEcho != nil {
		return 0, fmt.Errorf("interp: dispatch worker %d: %w", abortWorker, abortEcho)
	}
	return 0, nil
}

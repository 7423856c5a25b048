package interp

import (
	"errors"
	"fmt"
	"strings"
	"sync/atomic"

	"noelle/internal/ir"
	"noelle/internal/obs"
	"noelle/internal/queue"
)

// ErrStepLimit is returned when execution exceeds the configured budget.
var ErrStepLimit = errors.New("interp: step limit exceeded")

// Shared runtime errors: both engines must return the same values, so
// the differential tests can compare failures byte for byte.
var (
	errDivByZero = errors.New("interp: integer division by zero")
	errRemByZero = errors.New("interp: integer remainder by zero")
)

func errInvalidFnID(idx int64) error {
	return fmt.Errorf("interp: indirect call to invalid function id %d", idx)
}

// errAddress is a load, store or bulk queue buffer outside [0, memBytes):
// the same error on both engines, so a wild pointer is a trap, not a
// host panic or an unbounded page allocation.
func errAddress(access string, addr int64) error {
	return fmt.Errorf("interp: %s at address %d outside memory [0, %d)", access, addr, int64(memBytes))
}

const defaultMaxSteps = 200_000_000

// ExecConfig is the one declaration of the execution settings: every
// layer that runs a module embeds or builds this value. None of the
// settings changes what a run computes, only how.
type ExecConfig struct {
	// Eng selects the execution tier for defined functions: EngineWalker
	// or EngineCompiled, with "" taking the process default (compiled,
	// or $NOELLE_ENGINE). Both tiers are observationally identical —
	// same Output, Steps, Cycles, counters, memory image — on every
	// well-formed module; hooked contexts always run on the walker
	// regardless of Eng (hooks need the canonical event order), and
	// contexts serving an observation request on the compiled tier. See
	// engine.go.
	Eng Engine
	// SeqDispatch forces the noelle_dispatch extern to run task workers
	// sequentially in this context (the -seq debugging fallback). The
	// default executes them concurrently on real cores.
	SeqDispatch bool
	// DispatchWorkers caps how many dispatch workers run simultaneously
	// (0 means GOMAXPROCS). Worker invocations beyond the cap queue.
	DispatchWorkers int
	// QueueCap overrides the capacity baked into noelle_queue_create
	// calls (0 respects the module's value). Capacity only shapes
	// backpressure, never results, so overriding it is always safe.
	QueueCap int
	// Tracer, when set on the root context before Run, enables the
	// observability plane (internal/obs): the dispatch path records
	// dispatch/task spans per lane, and the communication externs record
	// queue push/pop and signal wait spans — including blocked time — into
	// per-lane lock-free recorders. Unlike the observation hooks of
	// Interp, tracing keeps the parallel dispatch path (spans are
	// per-lane, so no cross-worker ordering is imposed) and never perturbs
	// results. When nil (the default), every instrumented site reduces to
	// one pointer check: no allocations, no atomics, no clock reads.
	Tracer *obs.Tracer
}

// Interp is one execution context over a module image: a private call
// stack, step/cycle counters, output buffer, and hook set. New returns
// the root context (which also owns the image); the parallel dispatcher
// forks additional worker contexts that share the image's memory, global
// layout, and extern registry. Create with New, run with Run or Call.
type Interp struct {
	Mod   *ir.Module
	Steps int64 // executed instruction count
	// Cycles is the accumulated time at the price list's rates (cost.go).
	Cycles int64
	// MaxSteps bounds execution (0 means the default of 200M).
	MaxSteps int64

	// ExecConfig is how this context runs dispatched tasks, queues and
	// defined functions; worker contexts inherit it at fork time.
	ExecConfig
	// engineUsed records the tier the last Call actually ran on (the
	// Engine accessor reports it).
	engineUsed Engine

	// rec is this context's span recorder (nil when tracing is off).
	// Root contexts create theirs lazily; worker contexts inherit their
	// lane's recorder at fork time.
	rec *obs.Recorder

	// InstrHook, when set, observes every executed instruction after its
	// effects are applied (a call, before its callee runs). The hooks are
	// a walker-only facility for tests — the reference profiler and the
	// reference cost attribution are built from them; the product asks
	// the compiled tier instead (CountEdges, ObserveLoops). Installing any
	// hook pins the context to the walker and makes noelle_dispatch take
	// the sequential path, so hooks always observe the canonical
	// sequential event order.
	InstrHook func(in *ir.Instr)
	// BlockHook observes every basic-block entry.
	BlockHook func(b *ir.Block)
	// EdgeHook observes every taken intra-function CFG edge.
	EdgeHook func(from, to *ir.Block)

	// Output accumulates the text produced by print externs.
	Output strings.Builder

	// Extern counters (used by CARAT, COOS, TIME evaluations).
	GuardCalls    int64
	GuardFailures int64
	Callbacks     int64
	ClockSets     int64

	// Communication runtime counters (queue/signal externs issued from
	// this context; folded into the parent at the dispatch barrier).
	QueuePushes int64
	QueuePops   int64
	SignalWaits int64

	// parWorker marks contexts forked by the parallel dispatcher: their
	// queue pops and signal waits block (the producer or firing iteration
	// is live on another goroutine), while sequential contexts use the
	// never-blocking fallback mode.
	parWorker bool
	// pushBlocks additionally bounds this worker's queue pushes at
	// capacity. Set only when the dispatch runs every worker on its own
	// resident goroutine (cap >= fan-out): backpressure against a
	// consumer that has not started yet — because its worker index is
	// still queued behind the goroutine cap — would deadlock, so capped
	// dispatches fall back to growing pushes.
	pushBlocks bool

	img *image

	// stack is the compiled tier's value stack: frames and call argument
	// vectors (see push in compiled.go).
	stack []uint64
	// sp is the next free address of the context's stack region
	// [stackBase, stackLimit): a frame's allocas take it up, and its
	// return on either tier restores it.
	sp, stackBase, stackLimit int64
	// parent dispatched this worker and waits for it (nil on a root).
	parent *Interp

	// pool is the dispatch tree's shared step budget; nil on root
	// contexts (see stepPool in parallel.go).
	pool *stepPool

	// leaves is this context's copy of the image's page-table top level
	// (see pageTable), reloaded only when an address falls beyond it or
	// in a leaf it does not hold yet.
	leaves []atomic.Pointer[leaf]

	// probes is the observation this context serves on the compiled tier
	// (CountEdges, ObserveLoops; see observe.go). Zero on a plain context.
	// Last, so the fields the plain executor touches keep their offsets.
	probes probes
}

// Extern is a host implementation of a declared function. args is the
// caller's to reuse once the call returns: copy what must outlive it.
type Extern func(it *Interp, args []uint64) (uint64, error)

// New prepares a root interpreter context for m: assigns IDs, lays out
// globals into a fresh shared image, and registers the default externs.
func New(m *ir.Module) *Interp {
	img := newImage(m)
	it := &Interp{
		Mod:        m,
		MaxSteps:   defaultMaxSteps,
		img:        img,
		leaves:     img.mem.leaves(),
		sp:         img.globalsEnd,
		stackBase:  img.globalsEnd,
		stackLimit: img.globalsEnd + rootStackBytes,
	}
	img.registerExterns(defaultExterns...)
	return it
}

// RegisterExtern installs (or replaces) a host function for declarations
// named name, with no argument-count validation. Register before Run;
// registration is synchronized but a replacement mid-dispatch is not
// observed by workers already inside the extern.
func (it *Interp) RegisterExtern(name string, fn Extern) {
	it.img.registerExterns(externEntry{name: name, arity: -1, fn: fn})
}

// RegisterExternArity installs a host function that requires exactly
// arity arguments; calls with any other count fail with an error instead
// of the extern body indexing out of range.
func (it *Interp) RegisterExternArity(name string, arity int, fn Extern) {
	it.img.registerExterns(externEntry{name: name, arity: arity, fn: fn})
}

// ValidAddress reports whether addr falls inside a global or a live
// alloca: below the stack pointer of this context or of one that
// dispatched it, which does not move while it waits.
func (it *Interp) ValidAddress(addr int64) bool {
	if addr >= 8 && addr < it.img.globalsEnd {
		return true
	}
	for c := it; c != nil; c = c.parent {
		if addr >= c.stackBase && addr < c.sp {
			return true
		}
	}
	return false
}

// alloca takes size bytes, a positive multiple of 8, off the stack, or
// reports false when they do not fit. It clears what popped frames left
// on the pages that exist; a page never written reads zero anyway.
func (it *Interp) alloca(size int64) (int64, bool) {
	addr := it.sp
	if size > it.stackLimit-addr {
		return 0, false
	}
	it.sp += size
	for cell, end := uint64(addr)>>3, uint64(addr+size)>>3; cell < end; {
		next := min(end, cell-cell%pageCells+pageCells)
		if p := it.img.mem.page(cell, false); p != nil {
			clear(p[cell%pageCells : cell%pageCells+next-cell])
		}
		cell = next
	}
	return addr, true
}

// inMemory reports whether addr lies in the address range [0, memBytes).
func inMemory(addr int64) bool { return uint64(addr)>>3 < memCells }

// pageOf is the fast path of every access: the page holding cell, found
// through the context's copy of the top level with two indexed loads and
// no lock, map or eviction. nil sends the access to its slow path, which
// tells a page never written from a leaf or top level added since the
// copy and from an address outside memory.
func (it *Interp) pageOf(cell uint64) *page {
	if l := cell >> (pageShift + leafShift); l < uint64(len(it.leaves)) {
		if lf := it.leaves[l].Load(); lf != nil {
			return lf[cell>>pageShift%leafPages].Load()
		}
	}
	return nil
}

// readCell returns the cell at addr; a page never written reads 0. ok is
// false outside the address range, and the caller traps (errAddress).
func (it *Interp) readCell(addr int64) (v uint64, ok bool) {
	cell := uint64(addr) >> 3
	p := it.pageOf(cell)
	if p == nil {
		if cell >= memCells {
			return 0, false
		}
		it.leaves = it.img.mem.leaves()
		if p = it.img.mem.page(cell, false); p == nil {
			return 0, true
		}
	}
	return p[cell%pageCells], true
}

// writeCell stores v at addr, creating its page on first write; ok is
// false outside the address range, and nothing is written.
func (it *Interp) writeCell(addr int64, v uint64) (ok bool) {
	cell := uint64(addr) >> 3
	p := it.pageOf(cell)
	if p == nil {
		if p = it.page(cell); p == nil {
			return false
		}
	}
	p[cell%pageCells] = v
	return true
}

// page is the slow path of a write: the page holding cell, created on
// first touch, with the context's top level refreshed after any growth.
// It returns nil for a cell outside the address range.
func (it *Interp) page(cell uint64) *page {
	if cell >= memCells {
		return nil
	}
	p := it.img.mem.page(cell, true)
	it.leaves = it.img.mem.leaves()
	return p
}

// MemoryFingerprint hashes the contents of all global storage; semantic
// equivalence tests compare fingerprints of original vs transformed runs.
func (it *Interp) MemoryFingerprint() uint64 { return it.img.fingerprint() }

// CommStats reports the image's communication runtime counters: handles
// created, queue pushes/pops, signal waits/fires, summed over every
// execution context of the run.
func (it *Interp) CommStats() (creates, pushes, pops, waits, fires int64) {
	return it.img.comm.Stats()
}

// ParkStats reports the communication runtime's blocking profile: how
// often queue pushes/pops and signal waits actually parked, and the
// total time they spent parked. Always available (the counters cost
// nothing on the non-parking path), even when span tracing is off.
func (it *Interp) ParkStats() queue.ParkStats {
	return it.img.comm.ParkStats()
}

// stepBudget resolves the effective step limit (0 meaning the default;
// negative budgets — a forked worker with no grant yet — fall through to
// the slow path, which draws from the dispatch tree's shared pool).
func (it *Interp) stepBudget() int64 {
	if it.MaxSteps == 0 {
		return defaultMaxSteps
	}
	return it.MaxSteps
}

// Run executes @main with no arguments and returns its integer result.
func (it *Interp) Run() (int64, error) {
	main := it.Mod.FunctionByName("main")
	if main == nil {
		return 0, errors.New("interp: no @main")
	}
	it.initRecorder()
	r, err := it.Call(main, nil)
	return int64(r), err
}

// initRecorder lazily creates the root context's span recorder when a
// tracer is installed (group 0 / worker -1 marks the root lane).
func (it *Interp) initRecorder() {
	if it.Tracer != nil && it.rec == nil {
		it.rec = it.Tracer.NewRecorder(0, -1, "main")
	}
}

// WorkerStat is one dispatch lane's contribution to a run: the steps and
// cycles its worker invocations executed. Lanes are the dispatch
// goroutine slots (bounded by DispatchWorkers), so skew between entries
// of one dispatch is visible even when the fan-out is huge — a lane that
// claimed many cheap iterations and a lane that claimed one expensive
// worker both show up as one row.
type WorkerStat struct {
	// Dispatch is the dispatch's sequence number within the run
	// (1-based, in module execution order).
	Dispatch int
	// Lane is the goroutine slot within the dispatch; Claims counts the
	// worker invocations the lane executed (1:1 with worker indices when
	// the dispatch runs fully resident).
	Lane   int
	Claims int
	Steps  int64
	Cycles int64
}

// WorkerStats returns the per-lane execution stats of every parallel
// dispatch the run performed, in dispatch order. Sequential dispatches
// (the -seq fallback, hooked runs, single-worker fan-outs) record
// nothing — their work is the root context's own Steps/Cycles.
func (it *Interp) WorkerStats() []WorkerStat {
	it.img.statsMu.Lock()
	defer it.img.statsMu.Unlock()
	return append([]WorkerStat(nil), it.img.workerStats...)
}

// maxWorkerLines bounds WorkerStatLines: a dispatch-per-iteration module
// would otherwise flood a report or a footer (the full data is in a
// trace).
const maxWorkerLines = 32

// WorkerStatLines renders WorkerStats one lane per line,
// "worker dN.wM: claims=C steps=S cycles=Y", cut after maxWorkerLines
// lanes by one "worker stats: ... K more lanes" line. Per-lane stats
// make the worker skew visible that the aggregate Steps/Cycles hide.
func (it *Interp) WorkerStatLines() []string {
	stats := it.WorkerStats()
	var lines []string
	for i, ws := range stats {
		if i == maxWorkerLines {
			return append(lines, fmt.Sprintf("worker stats: ... %d more lanes", len(stats)-i))
		}
		lines = append(lines, fmt.Sprintf("worker d%d.w%d: claims=%d steps=%d cycles=%d",
			ws.Dispatch, ws.Lane, ws.Claims, ws.Steps, ws.Cycles))
	}
	return lines
}

// Call executes f with raw argument bits and returns the raw result
// bits. Declarations dispatch through the image's indexed extern
// registry (resolved to a registry slot once per declaration, not per
// call); defined functions run on the selected execution tier, with the
// walker as fallback for the rare function the compiler rejects.
func (it *Interp) Call(f *ir.Function, args []uint64) (uint64, error) {
	if it.img.layoutErr != nil {
		return 0, it.img.layoutErr
	}
	if f.IsDeclaration() {
		ext := it.img.externFor(f)
		if ext == nil {
			return 0, fmt.Errorf("interp: call to undefined extern @%s", f.Nam)
		}
		if ext.arity >= 0 && len(args) != ext.arity {
			return 0, fmt.Errorf("interp: extern @%s: %d args, want %d", f.Nam, len(args), ext.arity)
		}
		it.Cycles += externCost[ext.kind]
		return ext.fn(it, args)
	}
	if len(args) != len(f.Params) {
		return 0, fmt.Errorf("interp: @%s: %d args, want %d", f.Nam, len(args), len(f.Params))
	}
	err := errHookedObservation
	if it.selectEngine() == EngineCompiled {
		var cf *cfunc
		if cf, err = it.img.compiled(f, it.probes.in(f)); err == nil {
			it.engineUsed = EngineCompiled
			return it.execCompiled(cf, args)
		}
	}
	if it.observing() {
		// The walker serves no request: better no profile than one with a hole.
		return 0, fmt.Errorf("interp: cannot observe @%s: %w", f.Nam, err)
	}
	it.engineUsed = EngineWalker
	sp := it.sp
	r, err := it.callWalker(f, args)
	it.sp = sp // the frame's allocas pop
	return r, err
}

// callWalker is the instruction-walking reference engine: the original
// interpreter loop, operands resolved per use through a map frame. It is
// the differential oracle for the compiled tier — its probes included —
// and the only engine that fires the observation hooks.
func (it *Interp) callWalker(f *ir.Function, args []uint64) (uint64, error) {
	frame := map[ir.Value]uint64{}
	for i, p := range f.Params {
		frame[p] = args[i]
	}
	maxSteps := it.stepBudget()

	block := f.Entry()
	var prev *ir.Block
	for {
		if it.BlockHook != nil {
			it.BlockHook(block)
		}
		// Resolve phis as a parallel assignment from the incoming edge.
		phis := block.Phis()
		if len(phis) > 0 {
			vals := make([]uint64, len(phis))
			for i, phi := range phis {
				inc := phi.PhiIncoming(prev)
				if inc == nil {
					return 0, fmt.Errorf("interp: @%s/%s: phi %s has no incoming for %s", f.Nam, block.Nam, phi.Ident(), prev.Nam)
				}
				v, err := it.value(frame, inc)
				if err != nil {
					return 0, err
				}
				vals[i] = v
			}
			for i, phi := range phis {
				frame[phi] = vals[i]
				it.Steps++
				it.Cycles += Cost(phi)
				if it.InstrHook != nil {
					it.InstrHook(phi)
				}
			}
		}

		for _, in := range block.Instrs[block.FirstNonPhi():] {
			if it.Steps >= maxSteps {
				var ok bool
				if maxSteps, ok = it.extendStepBudget(); !ok {
					return 0, ErrStepLimit
				}
			}
			it.Steps++
			it.Cycles += Cost(in)

			switch in.Opcode {
			case ir.OpAlloca:
				size, err := allocaSize(in)
				addr, ok := it.alloca(size)
				if err != nil || !ok {
					return 0, errAlloca(in)
				}
				frame[in] = uint64(addr)

			case ir.OpLoad:
				p, err := it.value(frame, in.Ops[0])
				if err != nil {
					return 0, err
				}
				v, ok := it.readCell(int64(p))
				if !ok {
					return 0, errAddress("load", int64(p))
				}
				frame[in] = v

			case ir.OpStore:
				v, err := it.value(frame, in.Ops[0])
				if err != nil {
					return 0, err
				}
				p, err := it.value(frame, in.Ops[1])
				if err != nil {
					return 0, err
				}
				if !it.writeCell(int64(p), v) {
					return 0, errAddress("store", int64(p))
				}

			case ir.OpPtrAdd:
				p, err := it.value(frame, in.Ops[0])
				if err != nil {
					return 0, err
				}
				idx, err := it.value(frame, in.Ops[1])
				if err != nil {
					return 0, err
				}
				elem := in.Ty.Elem
				frame[in] = uint64(int64(p) + int64(idx)*int64(elem.Size()))

			case ir.OpCall:
				callee, err := it.callee(frame, in)
				if err != nil {
					return 0, err
				}
				args := make([]uint64, 0, len(in.Ops)-1)
				for _, a := range in.Ops[1:] {
					v, err := it.value(frame, a)
					if err != nil {
						return 0, err
					}
					args = append(args, v)
				}
				if it.InstrHook != nil {
					it.InstrHook(in)
				}
				r, err := it.Call(callee, args)
				if err != nil {
					return 0, err
				}
				if in.HasResult() {
					frame[in] = r
				}
				continue // hook already ran (before the callee body)

			case ir.OpBr:
				if it.InstrHook != nil {
					it.InstrHook(in)
				}
				prev, block = block, in.Blocks[0]
				if it.EdgeHook != nil {
					it.EdgeHook(prev, block)
				}
				goto nextBlock

			case ir.OpCondBr:
				c, err := it.value(frame, in.Ops[0])
				if err != nil {
					return 0, err
				}
				if it.InstrHook != nil {
					it.InstrHook(in)
				}
				prev = block
				if c != 0 {
					block = in.Blocks[0]
				} else {
					block = in.Blocks[1]
				}
				if it.EdgeHook != nil {
					it.EdgeHook(prev, block)
				}
				goto nextBlock

			case ir.OpRet:
				if it.InstrHook != nil {
					it.InstrHook(in)
				}
				if len(in.Ops) == 0 {
					return 0, nil
				}
				return it.value(frame, in.Ops[0])

			case ir.OpSelect:
				c, err := it.value(frame, in.Ops[0])
				if err != nil {
					return 0, err
				}
				pick := in.Ops[2]
				if c != 0 {
					pick = in.Ops[1]
				}
				v, err := it.value(frame, pick)
				if err != nil {
					return 0, err
				}
				frame[in] = v

			default:
				v, err := it.evalSimple(frame, in)
				if err != nil {
					return 0, err
				}
				frame[in] = v
			}
			if it.InstrHook != nil {
				it.InstrHook(in)
			}
		}
		return 0, fmt.Errorf("interp: @%s/%s: fell off block end", f.Nam, block.Nam)
	nextBlock:
	}
}

// callee resolves the target function of a call instruction.
func (it *Interp) callee(frame map[ir.Value]uint64, in *ir.Instr) (*ir.Function, error) {
	if f := in.CalledFunction(); f != nil {
		return f, nil
	}
	bits, err := it.value(frame, in.Ops[0])
	if err != nil {
		return nil, err
	}
	idx := int64(bits)
	if idx < 0 || idx >= int64(len(it.img.fnTable)) {
		return nil, errInvalidFnID(idx)
	}
	return it.img.fnTable[idx], nil
}

// value resolves an operand to its raw bits.
func (it *Interp) value(frame map[ir.Value]uint64, v ir.Value) (uint64, error) {
	switch x := v.(type) {
	case *ir.Const:
		return x.Bits(), nil
	case *ir.Global:
		return uint64(it.img.globalAddr[x]), nil
	case *ir.Function:
		return uint64(it.img.fnIndex[x]), nil
	default:
		bits, ok := frame[v]
		if !ok {
			return 0, fmt.Errorf("interp: use of undefined value %s", v.Ident())
		}
		return bits, nil
	}
}

// evalSimple executes an operand-only instruction: ir.Eval defines the
// result; a !ok is one of the two integer traps or an opcode the
// interpreter does not execute.
func (it *Interp) evalSimple(frame map[ir.Value]uint64, in *ir.Instr) (uint64, error) {
	a, err := it.value(frame, in.Ops[0])
	if err != nil {
		return 0, err
	}
	var b uint64
	if len(in.Ops) > 1 {
		b, err = it.value(frame, in.Ops[1])
		if err != nil {
			return 0, err
		}
	}
	if bits, ok := ir.Eval(in.Opcode, a, b); ok {
		return bits, nil
	}
	switch in.Opcode {
	case ir.OpDiv:
		return 0, errDivByZero
	case ir.OpRem:
		return 0, errRemByZero
	}
	return 0, fmt.Errorf("interp: cannot execute %s", in.Opcode)
}

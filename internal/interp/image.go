package interp

import (
	"math"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"noelle/internal/ir"
	"noelle/internal/queue"
)

// Memory geometry. A cell is 8 bytes; addr>>3 names it. The page table
// is two levels deep: a top-level slice of leaves, each leaf a fixed
// array of page pointers, each page a fixed array of cells.
const (
	pageShift = 10 // 1024 cells: 8 KiB pages
	pageCells = 1 << pageShift
	leafShift = 9 // 512 pages: a leaf maps 4 MiB and costs 4 KiB
	leafPages = 1 << leafShift

	// memBytes is the address range: every load, store and bulk queue
	// buffer lies in [0, memBytes) or is a run-time error. Allocas are
	// never reused, and a HELIX lowering allocates crossing-value
	// buffers on every task call, mostly never written: the largest
	// image the corpus programs, their lowerings at 2 and 12 cores and
	// the generated fuzzing subjects reach is about 600 MiB (leela_r),
	// and blender_r's HELIX lowering reaches about 3 GiB from 128 cores
	// up to core.MaxCores. 16 GiB leaves room at every core count while
	// bounding the pages a program can create; the top level it needs is
	// at most 4096 pointers, and only touched leaves exist.
	memBytes  = 1 << 34
	memCells  = memBytes >> 3
	maxLeaves = memCells >> (pageShift + leafShift)
)

// page is one page of cells; leaf maps leafPages consecutive pages, a
// slot staying nil until its page's first write.
type (
	page [pageCells]uint64
	leaf [leafPages]atomic.Pointer[page]
)

// pageTable is the memory shared by every execution context of one
// module image. A leaf, once installed, never moves and is never
// replaced, and neither is a page, installed in its leaf by
// compare-and-swap (freeing an allocation only retires its range from the
// allocation table). The top level only ever grows, by copy under grow,
// when a write lands beyond it, and grow also serializes leaf installs,
// so none is lost to a concurrent copy. So a context can keep its own
// copy of the top level and reach any cell with two indexed loads, no
// lock, no map and nothing to evict (Interp.pageOf).
//
// The table synchronizes the page *directory* only. Cell reads and
// writes on a page are plain array accesses: correctly-parallelized
// tasks write disjoint cells (reductions are privatized per worker
// through ENV slots), so concurrent accesses to one page land on
// different elements, which the Go memory model permits without
// synchronization — and a genuine same-cell conflict is a real bug in
// the parallelized program that the race detector should surface, not
// one the runtime should hide.
type pageTable struct {
	grow sync.Mutex
	top  atomic.Pointer[[]atomic.Pointer[leaf]]
}

// leaves returns the published top level (nil before the first write).
func (t *pageTable) leaves() []atomic.Pointer[leaf] {
	if top := t.top.Load(); top != nil {
		return *top
	}
	return nil
}

// page returns the page holding cell (which must be below memCells), or
// nil if it was never written and create is false. With create set it
// installs the page, and first its leaf, on first touch.
func (t *pageTable) page(cell uint64, create bool) *page {
	top, l := t.leaves(), cell>>(pageShift+leafShift)
	var lf *leaf
	if l < uint64(len(top)) {
		lf = top[l].Load()
	}
	if lf == nil {
		if !create {
			return nil
		}
		lf = t.addLeaf(l)
	}
	slot := &lf[cell>>pageShift%leafPages]
	p := slot.Load()
	if p == nil && create {
		p = new(page)
		if !slot.CompareAndSwap(nil, p) {
			p = slot.Load() // another context touched it first
		}
	}
	return p
}

// addLeaf returns leaf l, installing it first if no context has, in a
// top level grown (at least doubled) to reach it if it does not.
func (t *pageTable) addLeaf(l uint64) *leaf {
	t.grow.Lock()
	defer t.grow.Unlock()
	top := t.leaves()
	if l >= uint64(len(top)) {
		grown := make([]atomic.Pointer[leaf], min(max(l+1, 2*uint64(len(top))), maxLeaves))
		for i := range top {
			grown[i].Store(top[i].Load())
		}
		top = grown
		t.top.Store(&top)
	}
	lf := top[l].Load()
	if lf == nil {
		lf = new(leaf)
		top[l].Store(lf)
	}
	return lf
}

// image is the module's shared execution state: memory pages, the
// allocation table, global/function layout, and the extern registry. One
// image backs the root interpreter and every worker context the parallel
// dispatcher forks from it; the mutable parts are concurrency-safe, the
// rest is immutable after New.
type image struct {
	mod *ir.Module
	mem pageTable

	// heapMu guards the bump allocator and the live-allocation table.
	heapMu  sync.RWMutex
	nextPtr int64
	allocs  map[int64]int64 // start -> size (live allocations)

	// Immutable after New.
	globalAddr map[*ir.Global]int64
	fnTable    []*ir.Function
	fnIndex    map[*ir.Function]int64

	// The extern registry is indexed: entries live in an append-only
	// table behind an atomic pointer (registration copies, readers never
	// lock), and every declaration in fnTable caches its resolved table
	// slot in declSlot — so the per-call hot path is one atomic load and
	// an index, with zero allocations (pinned by
	// TestExternDispatchAllocFree). externMu serializes writers only.
	externMu  sync.Mutex
	externTab atomic.Pointer[[]externEntry]
	externIdx atomic.Pointer[map[string]int32]
	declSlot  []atomic.Int32

	// progs caches compiled function bodies (*cfunc, or an error for
	// functions the compiler rejected), keyed by *ir.Function. Shared by
	// every context of the image; compilation is deterministic, so a
	// racing double-compile is benign.
	progs sync.Map
	// probed caches the bodies compiled for an observing context (see
	// observe.go) the same way: one per function, recompiled when the
	// request it was bound to is not the one asking.
	probed sync.Map
	// scratch is a compiler's scratch tables, held by no compile at the
	// moment and reused by the next (compileFunc).
	scratch atomic.Pointer[compiler]
	// commGen counts re-registrations of the externs the compiler binds
	// to first-class ops (externEntry.op). A body compiled under an older
	// count may have such an op where the replacement must now be called,
	// so compiled() recompiles it.
	commGen atomic.Int64

	// comm is the inter-worker communication runtime (bounded queues and
	// ticket signals, internal/queue). Like the page table it is shared
	// by every execution context of the image; handles created by the
	// dispatching context are visible to all its workers.
	comm *queue.Runtime

	// dispatchSeq numbers the run's dispatches (shared across contexts:
	// nested dispatches from worker lanes draw from the same sequence).
	// It keys trace span groups and the per-lane stats below.
	dispatchSeq atomic.Int64

	// statsMu guards workerStats: per-lane Steps/Cycles retained at each
	// parallel dispatch's barrier, so per-worker skew survives the
	// deterministic post-barrier merge into the parent's aggregates.
	statsMu     sync.Mutex
	workerStats []WorkerStat
}

// maxWorkerStats bounds per-lane stat retention: a run that performs
// dispatches in a hot loop keeps only the first entries (reports show
// the prefix), so observability never grows a long run's memory
// unboundedly.
const maxWorkerStats = 1 << 16

// recordWorkerStats retains one dispatch's per-lane stats.
func (img *image) recordWorkerStats(stats []WorkerStat) {
	img.statsMu.Lock()
	if room := maxWorkerStats - len(img.workerStats); room > 0 {
		if len(stats) > room {
			stats = stats[:room]
		}
		img.workerStats = append(img.workerStats, stats...)
	}
	img.statsMu.Unlock()
}

// alloc reserves size bytes (rounded up to cells) and tracks the range.
func (img *image) alloc(size int64) int64 {
	if size < 8 {
		size = 8
	}
	size = (size + 7) &^ 7
	img.heapMu.Lock()
	addr := img.nextPtr
	img.nextPtr += size
	img.allocs[addr] = size
	img.heapMu.Unlock()
	return addr
}

func (img *image) free(addr int64) {
	img.heapMu.Lock()
	delete(img.allocs, addr)
	img.heapMu.Unlock()
}

// validAddress reports whether addr falls inside a live allocation.
func (img *image) validAddress(addr int64) bool {
	img.heapMu.RLock()
	defer img.heapMu.RUnlock()
	for start, size := range img.allocs {
		if addr >= start && addr < start+size {
			return true
		}
	}
	return false
}

// writeCell and readCell are the image's own accesses: global
// initializers and the fingerprint. An initializer past the address range
// is dropped, since no load can reach it.
func (img *image) writeCell(addr int64, v uint64) {
	if cell := uint64(addr) >> 3; cell < memCells {
		img.mem.page(cell, true)[cell%pageCells] = v
	}
}

func (img *image) readCell(addr int64) uint64 {
	cell := uint64(addr) >> 3
	if p := img.mem.page(cell, false); p != nil {
		return p[cell%pageCells]
	}
	return 0
}

// externEntry is one registered host function. arity < 0 skips the
// argument-count check (variable-arity host functions).
type externEntry struct {
	name  string
	arity int
	fn    Extern
	// kind is the cost-model entry calls are charged from (by name).
	kind externKind
	// op is the compiled tier's first-class op with fn's behaviour, set
	// only on the runtime's own push/pop/wait/fire registrations; a direct
	// call with the registered arity compiles to it instead of to cCall.
	op copcode
}

// declSlot sentinels: a declaration that has not been resolved against
// the extern table yet, and one whose name has no registration.
const (
	externUnresolved = -2
	externMissing    = -1
)

// registerExterns installs es, in order, in one publication. It copies
// the snapshot table and index (append-only for re-registered names too:
// the index simply points at the newest entry), then resets the
// resolution cache of every declaration with one of their names so the
// next call re-resolves. An entry's op is cInvalid except on the
// runtime's own communication externs (see externEntry.op); replacing one
// of those invalidates the compiled bodies that may have bound it.
func (img *image) registerExterns(es ...externEntry) {
	img.externMu.Lock()
	defer img.externMu.Unlock()
	old, oldIdx := *img.externTab.Load(), *img.externIdx.Load()
	tab := make([]externEntry, len(old), len(old)+len(es))
	copy(tab, old)
	idx := make(map[string]int32, len(oldIdx)+len(es))
	for k, v := range oldIdx {
		idx[k] = v
	}
	for _, e := range es {
		if prev, has := idx[e.name]; has && tab[prev].op != cInvalid {
			img.commGen.Add(1)
		}
		e.kind = externKinds[e.name]
		idx[e.name] = int32(len(tab))
		tab = append(tab, e)
	}
	img.externTab.Store(&tab)
	img.externIdx.Store(&idx)
	for i, f := range img.fnTable {
		if f.IsDeclaration() && slices.ContainsFunc(es, func(e externEntry) bool { return e.name == f.Nam }) {
			img.declSlot[i].Store(externUnresolved)
		}
	}
}

func (img *image) lookupExtern(name string) (fn Extern, arity int, ok bool) {
	i, has := (*img.externIdx.Load())[name]
	if !has {
		return nil, -1, false
	}
	e := &(*img.externTab.Load())[i]
	return e.fn, e.arity, true
}

// externFor returns the registered entry backing declaration f, or nil.
// The hot path is one atomic load of f's cached table slot; resolution
// through the name index happens once per declaration (and again after a
// re-registration resets the cache).
func (img *image) externFor(f *ir.Function) *externEntry {
	fi, known := img.fnIndex[f]
	if !known {
		// Not part of this image's module (synthetic declaration);
		// fall back to the name index with no cache.
		if i, has := (*img.externIdx.Load())[f.Nam]; has {
			return &(*img.externTab.Load())[i]
		}
		return nil
	}
	slot := img.declSlot[fi].Load()
	if slot == externUnresolved {
		if i, has := (*img.externIdx.Load())[f.Nam]; has {
			slot = i
		} else {
			slot = externMissing
		}
		img.declSlot[fi].Store(slot)
	}
	if slot == externMissing {
		return nil
	}
	return &(*img.externTab.Load())[slot]
}

// compiled returns f's compiled body for the given cost model and probes
// (zero: the plain body), compiling on first use. A function the compiler
// rejects caches its error and returns it forever after — a plain caller
// falls back to the walker. A cost-model change invalidates the cached
// body (recompile: per-op costs are baked in), and so do replacing an
// extern that bodies bind as a first-class op and, for a probed body, a
// different request.
func (img *image) compiled(f *ir.Function, cost CostModel, pr probes) (*cfunc, error) {
	cache := &img.progs
	if pr != (probes{}) {
		cache = &img.probed
	}
	gen := img.commGen.Load()
	if v, ok := cache.Load(f); ok {
		if cf, isFn := v.(*cfunc); isFn {
			if cf.cost == cost && cf.commGen == gen && cf.probes == pr {
				return cf, nil
			}
		} else {
			return nil, v.(error) // cached compile error
		}
	}
	cf, err := compileFunc(img, f, cost, pr)
	if err != nil {
		cache.Store(f, err)
		return nil, err
	}
	cf.commGen = gen // read before compiling: a racing replacement recompiles
	cache.Store(f, cf)
	return cf, nil
}

// fingerprint hashes the contents of all global storage; semantic
// equivalence tests compare fingerprints of original vs transformed runs.
func (img *image) fingerprint() uint64 {
	type ga struct {
		name string
		addr int64
		size int64
	}
	var gs []ga
	for g, a := range img.globalAddr {
		gs = append(gs, ga{g.Nam, a, int64(g.Elem.Size())})
	}
	sort.Slice(gs, func(i, j int) bool { return gs[i].name < gs[j].name })
	h := uint64(14695981039346656037)
	mix := func(v uint64) {
		h ^= v
		h *= 1099511628211
	}
	for _, g := range gs {
		for off := int64(0); off < g.size; off += 8 {
			mix(img.readCell(g.addr + off))
		}
	}
	return h
}

// newImage lays out m's globals and functions into a fresh image.
func newImage(m *ir.Module) *image {
	img := &image{
		mod:        m,
		nextPtr:    8, // keep 0 as a null page
		allocs:     make(map[int64]int64, len(m.Globals)),
		globalAddr: make(map[*ir.Global]int64, len(m.Globals)),
		fnTable:    make([]*ir.Function, 0, len(m.Functions)),
		fnIndex:    make(map[*ir.Function]int64, len(m.Functions)),
		comm:       queue.NewRuntime(),
	}
	emptyTab := []externEntry{}
	emptyIdx := map[string]int32{}
	img.externTab.Store(&emptyTab)
	img.externIdx.Store(&emptyIdx)
	for _, f := range m.Functions {
		img.fnIndex[f] = int64(len(img.fnTable))
		img.fnTable = append(img.fnTable, f)
	}
	img.declSlot = make([]atomic.Int32, len(img.fnTable))
	for i := range img.declSlot {
		img.declSlot[i].Store(externUnresolved)
	}
	for _, g := range m.Globals {
		addr := img.alloc(int64(g.Elem.Size()))
		img.globalAddr[g] = addr
		scalar := g.ScalarElem()
		if scalar.IsFloat() {
			for i, v := range g.FInit {
				img.writeCell(addr+int64(i)*8, math.Float64bits(v))
			}
		} else {
			for i, v := range g.Init {
				img.writeCell(addr+int64(i)*8, uint64(v))
			}
		}
	}
	return img
}

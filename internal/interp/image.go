package interp

import (
	"fmt"
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
	// buffer lies in [0, memBytes) or is a run-time error. It holds the
	// globals, the root's stack, then one stack per lane of the root's
	// dispatch (image.lanes). Over the corpus and its lowerings at 2, 12,
	// 128 and core.MaxCores cores, fuzz.Subjects(150), a root stack
	// reaches 12.6 MB (x264_r at core.MaxCores allocas a 1027-cell
	// environment in a loop of main), a lane's 328 KB (800 KB for a callee
	// allocaing 800 KB under DOALL) and the globals 49 KB: so 16 MiB and
	// 1 MiB, and 16 GiB holds 16,367 lanes.
	memBytes       = 1 << 34
	rootStackBytes = 16 << 20
	laneStackBytes = 1 << 20
	memCells       = memBytes >> 3
	maxLeaves      = memCells >> (pageShift + leafShift)
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
// compare-and-swap (an alloca clears the pages a popped frame left in
// place). The top level only ever grows, by copy under grow,
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

// image is the module's shared execution state: memory pages, the stack
// regions, global/function layout, and the extern registry. One image
// backs the root interpreter and every worker context the parallel
// dispatcher forks from it; the mutable parts are concurrency-safe, the
// rest is immutable after New.
type image struct {
	mod *ir.Module
	mem pageTable

	// Immutable after New. The globals lie in [8, globalsEnd), the
	// root's stack above them, and lane g of a parallel dispatch runs on
	// the stack at lanes+g*laneStackBytes: only the root forks lanes, one
	// dispatch at a time (see dispatch).
	globalAddr map[*ir.Global]int64
	globalsEnd int64
	lanes      int64
	// layoutErr names the first global that does not fit in memory; the
	// globals behind it are not laid out, and every Call fails with it.
	layoutErr error
	fnTable   []*ir.Function
	fnIndex   map[*ir.Function]int64

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
	// traced dispatches from worker lanes draw from the same sequence).
	// It keys trace span groups and the per-lane stats below.
	dispatchSeq atomic.Int64

	// workerStats holds per-lane Steps/Cycles retained at each parallel
	// dispatch's barrier, so per-worker skew survives the deterministic
	// post-barrier merge into the parent's aggregates. Only the root
	// writes it, at a barrier, when no worker runs: it needs no lock.
	workerStats []WorkerStat
}

// maxWorkerStats bounds per-lane stat retention: a run that performs
// dispatches in a hot loop keeps only the first entries (reports show
// the prefix), so observability never grows a long run's memory
// unboundedly.
const maxWorkerStats = 1 << 16

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
	// kind is the price calls are charged (externCost; by name).
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

// compiled returns f's compiled body for the given probes (zero: the
// plain body), compiling on first use. A function the compiler rejects
// caches its error and returns it forever after — a plain caller falls
// back to the walker. Replacing an extern that bodies bind as a
// first-class op invalidates the cached body, and so does, for a probed
// body, a different request.
func (img *image) compiled(f *ir.Function, pr probes) (*cfunc, error) {
	cache := &img.progs
	if pr != (probes{}) {
		cache = &img.probed
	}
	gen := img.commGen.Load()
	if v, ok := cache.Load(f); ok {
		if cf, isFn := v.(*cfunc); isFn {
			if cf.commGen == gen && cf.probes == pr {
				return cf, nil
			}
		} else {
			return nil, v.(error) // cached compile error
		}
	}
	cf, err := compileFunc(img, f, pr)
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

// allocaSize returns the bytes alloca in takes off its context's stack,
// or its trap when they exceed the largest stack or wrap. The compiled
// tier decides it when it compiles in.
func allocaSize(in *ir.Instr) (int64, error) {
	if n := int64(in.AllocaCount); n > 0 && ir.Fits(in.AllocaElem, rootStackBytes/n) {
		return int64(in.AllocaElem.Size()) * n, nil
	}
	return 0, errAlloca(in)
}

// errAlloca is an alloca's trap when it does not fit its stack.
func errAlloca(in *ir.Instr) error {
	return fmt.Errorf("interp: @%s: alloca %s of %d x %s overflows its stack",
		in.Parent.Parent.Nam, in.Ident(), in.AllocaCount, in.AllocaElem)
}

// newImage lays out m's globals and functions into a fresh image.
func newImage(m *ir.Module) *image {
	img := &image{
		mod:        m,
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
	// The globals leave room for the root context's stack.
	addr := int64(8)
	for _, g := range m.Globals {
		if !ir.Fits(g.Elem, memBytes-rootStackBytes-addr) {
			img.layoutErr = fmt.Errorf("interp: global @%s of type %s does not fit in memory [0, %d)", g.Nam, g.Elem, int64(memBytes))
			break
		}
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
		addr += int64(g.Elem.Size())
	}
	img.globalsEnd, img.lanes = addr, addr+rootStackBytes
	return img
}

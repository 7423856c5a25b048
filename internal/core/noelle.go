// Package core implements the Noelle manager: the demand-driven entry
// point to every abstraction the layer provides (paper Section 2.1,
// "noelle-load"). Abstractions are constructed on first request and
// cached, so custom tools only pay for what they use; every request is
// recorded per abstraction, which is how the Table 4 usage matrix is
// produced.
//
// The manager is safe for concurrent use: caches are mutex-guarded and
// the expensive per-function abstractions (PDG, L) are built under a
// single-flight discipline, so concurrent requests for the same function
// share one computation. PrecomputePDGs materializes every function PDG
// across a worker pool — the paper's "noelle-load computes abstractions
// in parallel".
package core

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"noelle/internal/abscache"
	"noelle/internal/alias"
	"noelle/internal/analysis"
	"noelle/internal/arch"
	"noelle/internal/callgraph"
	"noelle/internal/ir"
	"noelle/internal/loops"
	"noelle/internal/pdg"
	"noelle/internal/profiler"
	"noelle/internal/scheduler"
)

// Abstraction names the paper's Table 1 entries; used for request
// tracking.
type Abstraction string

// The abstractions NOELLE provides (paper Table 1).
const (
	AbsPDG    Abstraction = "PDG"
	AbsSCCDAG Abstraction = "aSCCDAG"
	AbsCG     Abstraction = "CG"
	AbsENV    Abstraction = "ENV"
	AbsTask   Abstraction = "T"
	AbsLS     Abstraction = "LS"
	AbsPRO    Abstraction = "PRO"
	AbsSCD    Abstraction = "SCD"
	AbsINV    Abstraction = "INV"
	AbsIV     Abstraction = "IV"
	AbsIVS    Abstraction = "IVS"
	AbsRD     Abstraction = "RD"
	AbsLoop   Abstraction = "L"
	AbsForest Abstraction = "FR"
	AbsLB     Abstraction = "LB"
	AbsISL    Abstraction = "ISL"
	AbsAR     Abstraction = "AR"
)

// Options configures the manager.
type Options struct {
	// BaselineAA restricts the PDG to the LLVM-like alias stack (used for
	// the Figure 3/4 baselines and the alias-stack ablation).
	BaselineAA bool
	// MinHotness is the minimum loop hotness custom tools consider
	// (noelle-rm-lc-dependences' "minimum hotness required to consider a
	// loop").
	MinHotness float64
	// Cores is the worker count parallelizers target.
	Cores int
	// CacheDir, when non-empty, enables the persistent abstraction store
	// (internal/abscache) rooted there: function PDGs are looked up by
	// the module's structural fingerprint, the alias stack and the
	// function's name before being built, and new builds are persisted
	// for later processes. Open failures degrade to an uncached manager
	// (see Noelle.StoreErr).
	CacheDir string
}

// aliasStack names the alias stack the manager's PDGs are built over.
// It is part of every store key: the two stacks build different graphs
// for one function.
func (o Options) aliasStack() string {
	if o.BaselineAA {
		return "baseline"
	}
	return "full"
}

// MaxCores is the largest core count a parallelizer may target. The
// lowerings emit per-worker code and state (DOALL folds one private
// accumulator per worker after the dispatch), so the count bounds the
// size of what they build.
const MaxCores = 1024

// CheckCores refuses a core count outside [1, MaxCores]: zero or fewer
// cores divide by zero in the schedules and the emitted code, and more
// build modules without bound.
func CheckCores(cores int) error {
	if cores < 1 || cores > MaxCores {
		return fmt.Errorf("cores %d outside [1, %d]", cores, MaxCores)
	}
	return nil
}

// DefaultOptions mirrors the paper's evaluation setup.
func DefaultOptions() Options {
	return Options{MinHotness: 0.05, Cores: 12}
}

// flight is one in-progress computation other requesters can wait on
// (single-flight: the first requester computes, the rest block on done).
type flight[T any] struct {
	done chan struct{}
	val  T
}

// Noelle is the compilation layer's manager.
type Noelle struct {
	Mod  *ir.Module
	Opts Options

	// mu guards every field below. Expensive computations run outside the
	// lock under the single-flight maps; gen detects invalidations that
	// raced an in-flight computation so stale results are never cached.
	mu  sync.Mutex
	gen uint64

	requests map[Abstraction]int

	pt      *alias.PointsTo
	builder *pdg.Builder
	fpdgs   map[*ir.Function]*pdg.Graph
	pdgFly  map[*ir.Function]*flight[*pdg.Graph]
	cg      *callgraph.CallGraph
	forests map[*ir.Function]*loops.Forest
	loopAbs map[*ir.Block]*loops.Loop // keyed by loop header
	loopFly map[*ir.Block]*flight[*loops.Loop]
	profile *profiler.Profile
	archD   *arch.Description
	scheds  map[*ir.Function]*scheduler.Scheduler

	// Persistent store state. store is written once at construction (or
	// via SetStore) and read under mu; the Store itself is
	// concurrency-safe. fper memoizes the module's structural
	// fingerprint and is used under mu: InvalidateFunction drops one
	// body's hash from it, InvalidateModule discards it. embedded holds
	// graphs decoded from noelle.pdg.* metadata (the noelle-meta-pdg-embed
	// round trip); once the module mutates before the first decode,
	// extraction is disabled (embeddedStale) — degrading to a rebuild,
	// never a wrong graph.
	store          *abscache.Store
	storeErr       error
	fper           *ir.Fingerprinter
	embedded       map[*ir.Function]*pdg.Graph
	embeddedLoaded bool
	embeddedStale  bool

	// Warm-load counters (atomic): PDGs built from scratch, store record
	// hits, store misses.
	pdgBuilds   atomic.Int64
	storeHits   atomic.Int64
	storeMisses atomic.Int64
}

// New loads the NOELLE layer over m without computing anything
// (noelle-load's semantics: abstractions materialize on demand). When
// opts.CacheDir is set the persistent abstraction store is opened there;
// an open failure degrades to an uncached manager (see StoreErr).
func New(m *ir.Module, opts Options) *Noelle {
	n := &Noelle{
		Mod:      m,
		Opts:     opts,
		requests: map[Abstraction]int{},
		fpdgs:    map[*ir.Function]*pdg.Graph{},
		pdgFly:   map[*ir.Function]*flight[*pdg.Graph]{},
		forests:  map[*ir.Function]*loops.Forest{},
		loopAbs:  map[*ir.Block]*loops.Loop{},
		loopFly:  map[*ir.Block]*flight[*loops.Loop]{},
		scheds:   map[*ir.Function]*scheduler.Scheduler{},
	}
	if opts.CacheDir != "" {
		n.store, n.storeErr = abscache.Open(opts.CacheDir, m, 0)
	}
	return n
}

// SetStore installs (or, with nil, detaches) a persistent abstraction
// store opened by the caller. It replaces any store opened via
// Options.CacheDir; the previous store is not closed.
func (n *Noelle) SetStore(s *abscache.Store) {
	n.mu.Lock()
	n.store = s
	n.storeErr = nil
	n.mu.Unlock()
}

// Store returns the attached persistent store, or nil.
func (n *Noelle) Store() *abscache.Store {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.store
}

// StoreErr reports why Options.CacheDir could not be honoured (nil when
// no store was requested or it opened cleanly).
func (n *Noelle) StoreErr() error {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.storeErr
}

// CacheStats returns the warm-load counters: PDGs built from scratch,
// persistent-store hits, and persistent-store misses. A fully warm run
// over unchanged IR reports builds == 0.
func (n *Noelle) CacheStats() (builds, hits, misses int64) {
	return n.pdgBuilds.Load(), n.storeHits.Load(), n.storeMisses.Load()
}

// FlushStore persists pending store records as one segment, then the
// index. A no-op without a store.
func (n *Noelle) FlushStore() error {
	if s := n.Store(); s != nil {
		return s.Flush()
	}
	return nil
}

// CloseStore flushes the store and folds this session's hit/miss
// counters into the on-disk stats file (surfaced by noelle-cache stats).
// A no-op without a store.
func (n *Noelle) CloseStore() error {
	if s := n.Store(); s != nil {
		return s.Close()
	}
	return nil
}

// storeKey returns the store key of f's PDG: the module's structural
// fingerprint (folded once per invalidation, re-hashing only the bodies
// invalidated since), the alias stack and f's name.
func (n *Noelle) storeKey(f *ir.Function) ir.Fingerprint {
	n.mu.Lock()
	if n.fper == nil {
		n.fper = ir.NewFingerprinter(n.Mod)
	}
	mod := n.fper.Module()
	n.mu.Unlock()
	return abscache.Key(mod, n.Opts.aliasStack(), f.Nam)
}

// Use records a request for an abstraction without constructing anything
// (mechanism abstractions like ENV/T/LB/IVS are provided by their own
// packages; tools record their use through the manager).
func (n *Noelle) Use(a Abstraction) {
	n.mu.Lock()
	n.requests[a]++
	n.mu.Unlock()
}

// Requested returns the distinct abstractions requested so far, sorted.
func (n *Noelle) Requested() []Abstraction {
	n.mu.Lock()
	var out []Abstraction
	for a := range n.requests {
		out = append(out, a)
	}
	n.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// ResetRequests clears the request log (used between tools when building
// the Table 4 matrix).
func (n *Noelle) ResetRequests() {
	n.mu.Lock()
	n.requests = map[Abstraction]int{}
	n.mu.Unlock()
}

// PointsTo returns the whole-module points-to analysis.
func (n *Noelle) PointsTo() *alias.PointsTo {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.pointsToLocked()
}

func (n *Noelle) pointsToLocked() *alias.PointsTo {
	if n.pt == nil {
		n.pt = alias.NewPointsTo(n.Mod)
	}
	return n.pt
}

// PDGBuilder returns the configured dependence-graph builder.
func (n *Noelle) PDGBuilder() *pdg.Builder {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.pdgBuilderLocked()
}

func (n *Noelle) pdgBuilderLocked() *pdg.Builder {
	if n.builder == nil {
		if n.Opts.BaselineAA {
			n.builder = pdg.NewBaselineBuilder(n.Mod)
		} else {
			pt := n.pointsToLocked()
			n.builder = &pdg.Builder{
				Mod: n.Mod,
				AA:  alias.NewCombined(alias.TypeBasicAA{}, alias.AndersenAA{PT: pt}),
				PT:  pt,
			}
		}
	}
	return n.builder
}

// FunctionPDG returns (building on first request) the PDG of f. When the
// module carries an embedded PDG (noelle-meta-pdg-embed ran earlier), it
// is reloaded instead of recomputed. Concurrent requests for the same
// function share a single computation.
func (n *Noelle) FunctionPDG(f *ir.Function) *pdg.Graph {
	n.Use(AbsPDG)
	n.mu.Lock()
	if g, ok := n.fpdgs[f]; ok {
		n.mu.Unlock()
		return g
	}
	if fl, ok := n.pdgFly[f]; ok {
		n.mu.Unlock()
		<-fl.done
		return fl.val
	}
	fl := &flight[*pdg.Graph]{done: make(chan struct{})}
	n.pdgFly[f] = fl
	gen := n.gen
	n.mu.Unlock()

	g := n.buildPDG(f, gen)

	n.mu.Lock()
	if n.gen == gen {
		n.fpdgs[f] = g
	}
	if n.pdgFly[f] == fl {
		delete(n.pdgFly, f) // invalidation may have replaced the flight
	}
	n.mu.Unlock()
	fl.val = g
	close(fl.done)
	return g
}

// buildPDG materializes f's PDG from the cheapest valid source: embedded
// noelle.pdg.* metadata first (the noelle-meta-pdg-embed round trip),
// then the persistent store by module fingerprint, and only then a
// cold build over the alias stack — which the next flush persists so
// the next process loads warm. The builder (and its whole-module
// points-to fixed point) is only materialized on an actual cold build:
// a fully warm run never pays the Andersen solve. gen is the caller's
// invalidation generation, captured before any IR was read.
func (n *Noelle) buildPDG(f *ir.Function, gen uint64) *pdg.Graph {
	if g := n.embeddedPDG(f); g != nil {
		return g
	}
	s := n.Store()
	var key ir.Fingerprint
	if s != nil {
		key = n.storeKey(f)
		if g, _, ok := s.Get(key, f); ok {
			n.storeHits.Add(1)
			return g
		}
		n.storeMisses.Add(1)
	}
	g := n.PDGBuilder().FunctionPDG(f)
	n.pdgBuilds.Add(1)
	if s != nil {
		// Persist only when no invalidation raced the build: a mutation
		// mid-build would otherwise pair the pre-mutation key with a
		// post-mutation graph on disk — the one way a store could serve a
		// wrong graph to a later process. (Same discipline as the
		// in-memory fpdgs cache.)
		n.mu.Lock()
		ok := n.gen == gen
		n.mu.Unlock()
		if ok {
			s.Put(abscache.NewRecord(key, f, g)) // written by the next flush
		}
	}
	return g
}

// embeddedPDG returns the graph noelle-meta-pdg-embed left in module
// metadata, if any. All embedded graphs are decoded on the first request
// (pdg.Extract); once the module has mutated, embedded metadata no
// longer matches the IR's syntactic numbering and is ignored.
func (n *Noelle) embeddedPDG(f *ir.Function) *pdg.Graph {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.embeddedStale {
		return nil
	}
	if !n.embeddedLoaded {
		n.embeddedLoaded = true
		if graphs, err := pdg.Extract(n.Mod); err == nil {
			n.embedded = graphs
		}
	}
	return n.embedded[f]
}

// PrecomputePDGs materializes the PDG of every defined function across a
// worker pool before tools run — the paper's parallel abstraction
// computation inside noelle-load. The pool is at most one worker per
// defined function, whatever count the caller (a flag, a daemon
// request) asks for. It stops early (returning ctx.Err()) when the
// context is cancelled.
func (n *Noelle) PrecomputePDGs(ctx context.Context, workers int) error {
	defined := 0
	for _, f := range n.Mod.Functions {
		if !f.IsDeclaration() {
			defined++
		}
	}
	workers = max(min(workers, defined), 1)
	// Without a persistent store every function is a cold build, so
	// materialize the shared builder (and its points-to fixed point) once
	// up front and let workers start from a read-only analysis stack.
	// With a store the builder stays lazy: a fully warm precompute never
	// runs the alias analyses at all, and on the first miss the builder
	// materializes once under the manager lock.
	if n.Store() == nil {
		n.PDGBuilder()
	}

	work := make(chan *ir.Function)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for f := range work {
				if ctx.Err() != nil {
					continue // drain without computing
				}
				n.FunctionPDG(f)
			}
		}()
	}
feed:
	for _, f := range n.Mod.Functions {
		if f.IsDeclaration() {
			continue
		}
		select {
		case <-ctx.Done():
			break feed
		case work <- f:
		}
	}
	close(work)
	wg.Wait()
	return ctx.Err()
}

// CallGraph returns the complete program call graph.
func (n *Noelle) CallGraph() *callgraph.CallGraph {
	n.Use(AbsCG)
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.cg == nil {
		n.cg = callgraph.New(n.Mod, n.pointsToLocked())
	}
	return n.cg
}

// Forest returns the loop forest of f.
func (n *Noelle) Forest(f *ir.Function) *loops.Forest {
	n.Use(AbsForest)
	n.mu.Lock()
	defer n.mu.Unlock()
	if fr, ok := n.forests[f]; ok {
		return fr
	}
	fr := loops.NewForest(f)
	n.forests[f] = fr
	return fr
}

// LoopStructures returns the LS of every loop in f.
func (n *Noelle) LoopStructures(f *ir.Function) []*loops.LS {
	n.Use(AbsLS)
	var out []*loops.LS
	for _, node := range n.Forest(f).Nodes() {
		out = append(out, node.LS)
	}
	return out
}

// Loop returns the full L abstraction for the loop with the given header,
// including its refined dependence graph, aSCCDAG, IVs, invariants, and
// reductions. Concurrent requests for the same loop share a single
// computation.
func (n *Noelle) Loop(ls *loops.LS) *loops.Loop {
	// Every abstraction a Loop is built from is recorded here, PDG
	// included, so the request log never depends on whether the bundle
	// (or the function's PDG) was already cached.
	n.Use(AbsPDG)
	n.Use(AbsLoop)
	n.Use(AbsSCCDAG)
	n.Use(AbsIV)
	n.Use(AbsINV)
	n.Use(AbsRD)
	n.mu.Lock()
	if l, ok := n.loopAbs[ls.Header]; ok {
		n.mu.Unlock()
		return l
	}
	if fl, ok := n.loopFly[ls.Header]; ok {
		n.mu.Unlock()
		<-fl.done
		return fl.val
	}
	fl := &flight[*loops.Loop]{done: make(chan struct{})}
	n.loopFly[ls.Header] = fl
	gen := n.gen
	n.mu.Unlock()

	fpdg := n.FunctionPDG(ls.Fn)
	var impure func(*ir.Instr) bool
	if !n.Opts.BaselineAA {
		pt := n.PointsTo()
		impure = func(call *ir.Instr) bool { return !pt.CallIsPure(call) }
	}
	l := loops.NewLoop(ls, fpdg, impure)

	n.mu.Lock()
	if n.gen == gen {
		n.loopAbs[ls.Header] = l
	}
	if n.loopFly[ls.Header] == fl {
		delete(n.loopFly, ls.Header) // invalidation may have replaced the flight
	}
	n.mu.Unlock()
	fl.val = l
	close(fl.done)
	return l
}

// Profile returns the embedded profile, or nil when the module was not
// profiled (tools degrade gracefully to static heuristics).
func (n *Noelle) Profile() *profiler.Profile {
	n.Use(AbsPRO)
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.profile == nil && profiler.HasEmbedded(n.Mod) {
		if p, err := profiler.Reload(n.Mod); err == nil {
			n.profile = p
		}
	}
	return n.profile
}

// Arch returns the architecture description (measuring it on first use).
func (n *Noelle) Arch() *arch.Description {
	n.Use(AbsAR)
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.archD == nil {
		n.archD = arch.Default()
	}
	return n.archD
}

// Scheduler returns the PDG-guarded scheduler for f.
func (n *Noelle) Scheduler(f *ir.Function) *scheduler.Scheduler {
	n.Use(AbsSCD)
	n.mu.Lock()
	if s, ok := n.scheds[f]; ok {
		n.mu.Unlock()
		return s
	}
	gen := n.gen
	n.mu.Unlock()
	g := n.FunctionPDG(f)
	s := scheduler.New(f, g)
	n.mu.Lock()
	defer n.mu.Unlock()
	if prev, ok := n.scheds[f]; ok {
		return prev // another requester won the race
	}
	if n.gen == gen {
		n.scheds[f] = s // don't cache across an invalidation
	}
	return s
}

// HotLoops returns the top-level loop structures of every defined function
// whose profile hotness meets the configured threshold, hottest first.
// Without a profile every top-level loop qualifies.
func (n *Noelle) HotLoops() []*loops.LS {
	prof := n.Profile()
	type scored struct {
		ls  *loops.LS
		hot float64
	}
	var all []scored
	for _, f := range n.Mod.Functions {
		if f.IsDeclaration() {
			continue
		}
		li := analysis.NewLoopInfo(f)
		for _, nat := range li.TopLevel {
			ls := loops.NewLS(f, nat)
			hot := 1.0
			if prof != nil {
				hot = prof.LoopStatsFor(nat).Hotness
			}
			if hot >= n.Opts.MinHotness {
				all = append(all, scored{ls, hot})
			}
		}
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].hot > all[j].hot })
	var out []*loops.LS
	for _, s := range all {
		out = append(out, s.ls)
	}
	return out
}

// InvalidateFunction drops cached analyses for f after a transformation.
// In-flight computations are detached too, so requesters arriving after
// the invalidation start fresh rather than joining a stale flight (the
// flight's own requesters still receive its result: they raced the
// invalidation).
func (n *Noelle) InvalidateFunction(f *ir.Function) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.gen++
	if n.fper != nil {
		n.fper.Invalidate(f) // re-hash f's body, keep every other one
	}
	if n.embeddedLoaded {
		delete(n.embedded, f) // other functions' decoded graphs stay valid
	} else {
		n.embeddedStale = true // numbering already drifted; never decode
	}
	delete(n.fpdgs, f)
	delete(n.pdgFly, f)
	delete(n.forests, f)
	delete(n.scheds, f)
	for h, l := range n.loopAbs {
		if l.LS.Fn == f {
			delete(n.loopAbs, h)
		}
	}
	for h := range n.loopFly {
		if h.Parent == f {
			delete(n.loopFly, h)
		}
	}
}

// InvalidateModule drops every cached analysis (after linking or global
// transformations).
func (n *Noelle) InvalidateModule() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.gen++
	n.fper = nil
	n.embedded = nil
	n.embeddedLoaded = true // decoded pre-mutation state is gone for good
	n.embeddedStale = true
	n.pt = nil
	n.builder = nil
	n.cg = nil
	n.profile = nil
	n.fpdgs = map[*ir.Function]*pdg.Graph{}
	n.pdgFly = map[*ir.Function]*flight[*pdg.Graph]{}
	n.forests = map[*ir.Function]*loops.Forest{}
	n.loopAbs = map[*ir.Block]*loops.Loop{}
	n.loopFly = map[*ir.Block]*flight[*loops.Loop]{}
	n.scheds = map[*ir.Function]*scheduler.Scheduler{}
}

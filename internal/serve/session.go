package serve

import (
	"container/list"
	"crypto/sha256"
	"fmt"
	"sync"

	"noelle/internal/abscache"
	"noelle/internal/core"
	"noelle/internal/ir"
	"noelle/internal/irtext"
	"noelle/internal/obs"
)

// A session is one resident warm module: the pristine parsed IR plus a
// demand-driven manager whose cached abstractions survive across
// requests. Sessions are keyed by the module's structural fingerprint
// (ir.ModuleFingerprint) combined with the manager-shaping options, so
// any client sending a structurally identical module — even re-printed
// or renumbered text — lands on the same warm state.
//
// mu serializes pipeline runs on the shared manager: tool.Run's
// request-log attribution is per-manager, so concurrent read-only
// pipelines must not interleave on one session. Transforming pipelines
// never touch the shared manager at all — they clone the pristine
// module and run over a throwaway manager attached to the same
// persistent store (see Server.execute).
type session struct {
	key  string
	fp   ir.Fingerprint
	mod  *ir.Module
	mgr  *core.Noelle
	copt core.Options

	// store is the persistent namespace for this module's name (shared
	// with every other session of the same program), nil when the daemon
	// runs without -cache-dir.
	store *abscache.Store

	mu sync.Mutex

	// Bookkeeping owned by the sessions cache (under its lock).
	elem    *list.Element
	aliases [][sha256.Size]byte
}

// sessions is the LRU-admitted cache of resident warm modules. A
// byte-hash alias table fronts it so a request whose module text was
// seen before skips the parse entirely; structurally identical but
// textually different modules still converge on one session through the
// fingerprint key after their first parse.
type sessions struct {
	mu      sync.Mutex
	cap     int
	byKey   map[string]*session
	byAlias map[[sha256.Size]byte]*session
	order   *list.List // front = most recently used
	reg     *obs.Registry
}

func newSessions(capacity int, reg *obs.Registry) *sessions {
	if capacity < 1 {
		capacity = 1
	}
	return &sessions{
		cap:     capacity,
		byKey:   map[string]*session{},
		byAlias: map[[sha256.Size]byte]*session{},
		order:   list.New(),
		reg:     reg,
	}
}

// acquire resolves the session for a module text, parsing and admitting
// a new one on miss. hit reports whether a resident session (its warm
// manager and parsed IR) was reused. openStore supplies the persistent
// store namespace for a freshly parsed module (nil disables persistence).
func (sc *sessions) acquire(moduleText string, opts RunOptions, openStore func(*ir.Module) *abscache.Store) (*session, bool, error) {
	alias := sha256.Sum256([]byte(opts.sessionKeyPart() + "\x00" + moduleText))

	sc.mu.Lock()
	if s, ok := sc.byAlias[alias]; ok {
		sc.order.MoveToFront(s.elem)
		sc.mu.Unlock()
		sc.reg.Count("serve.session.hits", 1)
		return s, true, nil
	}
	sc.mu.Unlock()

	// Parse outside the lock: it is the expensive path, and concurrent
	// misses on different modules should not serialize on it.
	m, err := irtext.Parse(moduleText)
	if err != nil {
		return nil, false, fmt.Errorf("serve: parsing module: %w", err)
	}
	fp := ir.ModuleFingerprint(m)
	key := fp.String() + "|" + opts.sessionKeyPart()

	sc.mu.Lock()
	defer sc.mu.Unlock()
	if s, ok := sc.byKey[key]; ok {
		// Structural hit under different text: remember the new spelling.
		sc.addAliasLocked(s, alias)
		sc.order.MoveToFront(s.elem)
		sc.reg.Count("serve.session.hits", 1)
		return s, true, nil
	}
	s := &session{key: key, fp: fp, mod: m, copt: opts.coreOptions()}
	s.mgr = core.New(m, s.copt)
	if openStore != nil {
		if st := openStore(m); st != nil {
			s.store = st
			s.mgr.SetStore(st)
		}
	}
	s.elem = sc.order.PushFront(s)
	sc.byKey[key] = s
	sc.addAliasLocked(s, alias)
	sc.reg.Count("serve.session.misses", 1)
	for sc.order.Len() > sc.cap {
		sc.evictLocked(sc.order.Back())
	}
	sc.reg.Gauge("serve.sessions.resident", int64(sc.order.Len()))
	return s, false, nil
}

func (sc *sessions) addAliasLocked(s *session, alias [sha256.Size]byte) {
	if _, dup := sc.byAlias[alias]; dup {
		return
	}
	sc.byAlias[alias] = s
	s.aliases = append(s.aliases, alias)
}

// evictLocked drops the least-recently-used session. Its persistent
// store stays open (stores are pooled per module namespace and shared);
// only the in-memory manager and parsed IR are released. A pipeline
// still running on the evicted session keeps its own reference — the
// session simply stops being findable, and its memory goes when the
// last run finishes.
func (sc *sessions) evictLocked(el *list.Element) {
	s := el.Value.(*session)
	sc.order.Remove(el)
	delete(sc.byKey, s.key)
	for _, a := range s.aliases {
		delete(sc.byAlias, a)
	}
	sc.reg.Count("serve.session.evictions", 1)
}

// len returns the resident session count.
func (sc *sessions) len() int {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	return sc.order.Len()
}

// storePool shares one abscache.Store per module namespace (ModuleKey
// hashes the module name). A record's key covers the whole module, so
// the sessions of one program share the namespace's records only where
// their modules are structurally identical: a warm fleet serves repeated
// and re-printed modules, never one version's graphs to another. Stores
// are opened lazily and closed only at daemon shutdown, folding their
// session counters into the on-disk stats file exactly once.
type storePool struct {
	mu     sync.Mutex
	root   string
	stores map[string]*abscache.Store
}

func newStorePool(root string) *storePool {
	return &storePool{root: root, stores: map[string]*abscache.Store{}}
}

// open returns the store for m's namespace, opening it on first use. A
// failed open degrades to nil (an uncached session), mirroring
// noelle-load's behaviour.
func (p *storePool) open(m *ir.Module) *abscache.Store {
	if p == nil || p.root == "" {
		return nil
	}
	key := abscache.ModuleKey(m)
	p.mu.Lock()
	defer p.mu.Unlock()
	if s, ok := p.stores[key]; ok {
		return s
	}
	s, err := abscache.Open(p.root, m, 0)
	if err != nil {
		return nil
	}
	p.stores[key] = s
	return s
}

// snapshot returns each open store's live session counters.
func (p *storePool) snapshot() map[string]abscache.Stats {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.stores) == 0 {
		return nil
	}
	out := make(map[string]abscache.Stats, len(p.stores))
	for key, s := range p.stores {
		out[key] = s.Stats()
	}
	return out
}

// closeAll closes every open store (idempotent per store).
func (p *storePool) closeAll() error {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	var first error
	for _, s := range p.stores {
		if err := s.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

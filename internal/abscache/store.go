package abscache

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"

	"noelle/internal/ir"
	"noelle/internal/pdg"
)

// Stats counts one session's store traffic. A hit is a record that
// decoded into a valid graph; everything else (absent, corrupt, stale
// shape) is a miss, and the caller rebuilds. The JSON tags are the wire
// codec shared by `noelle-cache stats -json` and the noelle-serve stats
// endpoint — one layout, two surfaces.
type Stats struct {
	Hits   int64 `json:"hits"`
	Misses int64 `json:"misses"`
	Puts   int64 `json:"puts"`
}

// IndexEntry is one line of a namespace's index file: the latest key
// stored for a function name, plus display counts for noelle-cache ls.
type IndexEntry struct {
	Name   string
	Key    string
	Instrs int
	Edges  int
}

// parseIndex decodes an index file; malformed lines are skipped (the
// index is rebuilt by Puts, never trusted blindly).
func parseIndex(data []byte) []IndexEntry {
	var out []IndexEntry
	for _, line := range strings.Split(string(data), "\n") {
		fields := strings.Split(line, "\t")
		if len(fields) != 4 {
			continue
		}
		instrs, _ := strconv.Atoi(fields[2])
		edges, _ := strconv.Atoi(fields[3])
		out = append(out, IndexEntry{Name: fields[0], Key: fields[1], Instrs: instrs, Edges: edges})
	}
	return out
}

// Store is a two-tier persistent abstraction store: an in-memory LRU of
// decoded records in front of one on-disk directory per module namespace.
// Put stays in memory: it marks the record pending, and Flush commits
// every pending record as one immutable segment, then the index, each
// with one write-temp-then-rename, so a crash leaves the old files or the
// new ones — never a torn read. A Store reads its namespace's segments
// once, on its first miss. Safe for concurrent use.
type Store struct {
	mu     sync.Mutex
	root   string
	modKey string
	modDir string

	lru        *lruCache
	pending    map[ir.Fingerprint]*Record // put since the last Flush
	index      map[string]IndexEntry
	indexDirty bool
	stats      Stats
	closed     bool

	// disk holds the encoded records of the namespace's segments, one per
	// key: read on the first miss, then extended by every Flush.
	loadDisk sync.Once
	disk     map[ir.Fingerprint][]byte
}

// DefaultLRUEntries is the in-memory tier's default capacity.
const DefaultLRUEntries = 4096

// ModuleKey derives the store subdirectory for a module. It hashes the
// module name only, so it is a namespace, not a key: correctness lives
// entirely in each record's Key, which covers the whole module. Every
// version of one program (each stage of a transforming pipeline, each
// edit) shares the directory, and gc keeps the latest record per
// function name.
func ModuleKey(m *ir.Module) string {
	sum := sha256.Sum256([]byte("noelle.mod.v1\x00" + m.Name))
	return hex.EncodeToString(sum[:8])
}

// Open opens (creating if needed) the store rooted at root for module m.
// lruEntries <= 0 selects DefaultLRUEntries.
func Open(root string, m *ir.Module, lruEntries int) (*Store, error) {
	if root == "" {
		return nil, fmt.Errorf("abscache: empty store directory")
	}
	if lruEntries <= 0 {
		lruEntries = DefaultLRUEntries
	}
	key := ModuleKey(m)
	modDir := filepath.Join(root, key)
	if err := os.MkdirAll(modDir, 0o755); err != nil {
		return nil, fmt.Errorf("abscache: %w", err)
	}
	s := &Store{
		root:    root,
		modKey:  key,
		modDir:  modDir,
		lru:     newLRU(lruEntries),
		pending: map[ir.Fingerprint]*Record{},
		index:   map[string]IndexEntry{},
		disk:    map[ir.Fingerprint][]byte{},
	}
	s.loadIndex()
	return s, nil
}

// Root returns the store's root directory.
func (s *Store) Root() string { return s.root }

// Get looks up the record under key and reconstructs f's PDG from it. Any
// failure — absent record, corrupt bytes, shape mismatch — is a miss.
// The segment read, the decode and the graph assembly run outside the
// store lock, so concurrent warm loads (PrecomputePDGs workers) proceed
// in parallel.
func (s *Store) Get(key ir.Fingerprint, f *ir.Function) (*pdg.Graph, *Record, bool) {
	rec, ok := s.lookup(key)
	var g *pdg.Graph
	if ok {
		var err error
		g, err = rec.BuildGraph(f)
		ok = err == nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if !ok {
		s.stats.Misses++
		return nil, nil, false
	}
	s.stats.Hits++
	return g, rec, true
}

// lookup returns the record under key: the one in memory, else the one
// its segments hold, decoded and admitted to the LRU. Two goroutines
// racing the same cold key at worst decode the record twice; the first
// to admit it wins, so memory holds one copy of each record.
func (s *Store) lookup(key ir.Fingerprint) (*Record, bool) {
	s.mu.Lock()
	rec, ok := s.memLocked(key)
	s.mu.Unlock()
	if ok {
		return rec, true
	}
	s.loadDisk.Do(s.readDisk)
	s.mu.Lock()
	data, ok := s.disk[key]
	s.mu.Unlock()
	if !ok {
		return nil, false
	}
	rec, err := Decode(data)
	if err != nil || rec.Key != key {
		return nil, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if cur, ok := s.memLocked(key); ok {
		return cur, true
	}
	s.lru.put(key, rec)
	return rec, true
}

// memLocked finds key's record in memory: pending first, because a
// pending record the LRU evicted is still the one the next Flush writes.
// Caller holds mu.
func (s *Store) memLocked(key ir.Fingerprint) (*Record, bool) {
	if rec, ok := s.pending[key]; ok {
		return rec, true
	}
	return s.lru.get(key)
}

// readDisk reads the namespace's segments, outside the lock, keeping what
// a Flush of this Store committed meanwhile.
func (s *Store) readDisk() {
	segs := readSegments(s.modDir)
	s.mu.Lock()
	defer s.mu.Unlock()
	for key, data := range segs.records {
		if _, ok := s.disk[key]; !ok {
			s.disk[key] = data
		}
	}
}

// Put admits rec to the memory tier, marks it for the next Flush, and
// points the function-name index at it.
func (s *Store) Put(rec *Record) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stats.Puts++
	s.lru.put(rec.Key, rec)
	s.pending[rec.Key] = rec
	s.index[rec.FuncName] = IndexEntry{
		Name:   rec.FuncName,
		Key:    rec.Key.String(),
		Instrs: rec.NumInstrs,
		Edges:  len(rec.Edges),
	}
	s.indexDirty = true
}

// Stats returns a snapshot of this session's counters: a by-value copy
// taken under the store lock, safe to poll concurrently with live
// traffic (the noelle-serve stats endpoint does, on every request).
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// Flush commits every pending record as one segment, then the index. It
// does not write the session counters; Close does.
func (s *Store) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.flushLocked()
}

func (s *Store) flushLocked() error {
	if len(s.pending) > 0 {
		keys := make([]ir.Fingerprint, 0, len(s.pending))
		for key := range s.pending {
			keys = append(keys, key)
		}
		sort.Slice(keys, func(i, j int) bool { return bytes.Compare(keys[i][:], keys[j][:]) < 0 })
		var seg []byte
		for _, key := range keys {
			seg = appendFrame(seg, s.pending[key])
		}
		if _, err := writeSegment(s.modDir, seg); err != nil {
			return err
		}
		// Later misses find these records in memory, the LRU or not.
		i := 0
		scanFrames(seg, func(rec []byte) {
			s.disk[keys[i]] = rec
			i++
		})
		clear(s.pending)
	}
	if s.indexDirty {
		if err := s.writeIndex(); err != nil {
			return err
		}
		s.indexDirty = false
	}
	return nil
}

// Close flushes and folds this session's counters into the root stats
// file (total.* accumulate forever; last.* describe the final session),
// which is what noelle-cache stats surfaces. Close is idempotent.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	if err := s.flushLocked(); err != nil {
		return err
	}
	return writeStatsFile(s.root, s.stats)
}

// ---- on-disk plumbing ----

const indexName = "index"

func (s *Store) loadIndex() {
	data, err := os.ReadFile(filepath.Join(s.modDir, indexName))
	if err != nil {
		return // absent or unreadable: rebuilt lazily by Puts
	}
	for _, e := range parseIndex(data) {
		s.index[e.Name] = e
	}
}

func (s *Store) writeIndex() error {
	names := make([]string, 0, len(s.index))
	for n := range s.index {
		names = append(names, n)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, n := range names {
		e := s.index[n]
		fmt.Fprintf(&b, "%s\t%s\t%d\t%d\n", n, e.Key, e.Instrs, e.Edges)
	}
	return commitFile(filepath.Join(s.modDir, indexName), []byte(b.String()))
}

// commitFile writes data crash-safely: to a temp file in the same
// directory, fsync-free but atomically renamed into place.
func commitFile(path string, data []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".tmp-*")
	if err != nil {
		return fmt.Errorf("abscache: %w", err)
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("abscache: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("abscache: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("abscache: %w", err)
	}
	return nil
}

const statsName = "stats"

// writeStatsFile folds a session's counters into root/stats.
func writeStatsFile(root string, session Stats) error {
	totals, _ := ReadStatsFile(root)
	totals["total.hits"] += session.Hits
	totals["total.misses"] += session.Misses
	totals["total.puts"] += session.Puts
	totals["total.sessions"]++
	totals["last.hits"] = session.Hits
	totals["last.misses"] = session.Misses
	totals["last.puts"] = session.Puts
	keys := make([]string, 0, len(totals))
	for k := range totals {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, "%s=%d\n", k, totals[k])
	}
	return commitFile(filepath.Join(root, statsName), []byte(b.String()))
}

// ReadStatsFile parses root/stats into counter values. A missing file
// reads as all-zero counters.
func ReadStatsFile(root string) (map[string]int64, error) {
	out := map[string]int64{}
	data, err := os.ReadFile(filepath.Join(root, statsName))
	if err != nil {
		return out, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		k, v, ok := strings.Cut(line, "=")
		if !ok {
			continue
		}
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			continue
		}
		out[k] = n
	}
	return out, nil
}

package abscache_test

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"noelle/internal/abscache"
	"noelle/internal/ir"
)

// putAndClose stores the records of the named functions of m in one
// session over dir.
func putAndClose(t *testing.T, dir string, m *ir.Module, lru int, names ...string) {
	t.Helper()
	s, err := abscache.Open(dir, m, lru)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	for _, name := range names {
		_, _, rec := buildRecord(t, m, name)
		s.Put(rec)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
}

// segmentFiles lists m's segment files under dir.
func segmentFiles(t *testing.T, dir string, m *ir.Module) []string {
	t.Helper()
	modDir := filepath.Join(dir, abscache.ModuleKey(m))
	entries, err := os.ReadDir(modDir)
	if err != nil {
		t.Fatalf("read store: %v", err)
	}
	var segs []string
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".seg") {
			segs = append(segs, filepath.Join(modDir, e.Name()))
		}
	}
	return segs
}

func onlySegment(t *testing.T, dir string, m *ir.Module) string {
	t.Helper()
	segs := segmentFiles(t, dir, m)
	if len(segs) != 1 {
		t.Fatalf("store holds %d segments, want 1", len(segs))
	}
	return segs[0]
}

// frameOf returns the byte range [start, end) of the record of function
// name within a segment: frames are a u32 LE length, then the record.
func frameOf(t *testing.T, seg []byte, name string) [2]int {
	t.Helper()
	for at := 0; at+4 <= len(seg); {
		n := int(binary.LittleEndian.Uint32(seg[at:]))
		rec, err := abscache.Decode(seg[at+4 : at+4+n])
		if err != nil {
			t.Fatalf("decode frame at %d: %v", at, err)
		}
		if rec.FuncName == name {
			return [2]int{at + 4, at + 4 + n}
		}
		at += 4 + n
	}
	t.Fatalf("no record for @%s in the segment", name)
	return [2]int{}
}

// hits reports, per function name, whether a fresh session over dir finds
// its record.
func hits(t *testing.T, dir string, m *ir.Module, names ...string) map[string]bool {
	t.Helper()
	s, err := abscache.Open(dir, m, 0)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	out := map[string]bool{}
	for _, name := range names {
		_, _, out[name] = s.Get(keyOf(m, name), m.FunctionByName(name))
	}
	return out
}

// TestTruncatedSegmentServesPrefix: a segment cut off in the middle of
// its last frame (a torn write) still serves every record before it.
func TestTruncatedSegmentServesPrefix(t *testing.T) {
	dir := t.TempDir()
	m := compile(t)
	putAndClose(t, dir, m, 0, "step", "main")

	seg := onlySegment(t, dir, m)
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	first, last := "step", "main"
	if frameOf(t, data, "main")[0] < frameOf(t, data, "step")[0] {
		first, last = last, first
	}
	end := frameOf(t, data, last)
	if err := os.WriteFile(seg, data[:(end[0]+end[1])/2], 0o644); err != nil {
		t.Fatal(err)
	}
	got := hits(t, dir, m, first, last)
	if !got[first] || got[last] {
		t.Errorf("after truncating @%s's frame: hits %v, want only @%s", last, got, first)
	}
	res, err := abscache.GC(dir)
	if err != nil {
		t.Fatal(err)
	}
	if res.Corrupt != 1 || res.Kept != 1 {
		t.Errorf("gc = %+v, want the torn tail counted corrupt and one record kept", res)
	}
}

// TestEvictedPendingRecordIsFlushed: a record put into a one-entry
// memory tier and pushed out of it by the next put is still pending, so
// it is still found, and the next Flush writes it. Once flushed and out
// of memory, it is still found in the same session.
func TestEvictedPendingRecordIsFlushed(t *testing.T) {
	m := compile(t)
	root := t.TempDir()
	st, err := abscache.Open(root, m, 1)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	fStep, _, recStep := buildRecord(t, m, "step")
	if _, _, ok := st.Get(recStep.Key, fStep); ok { // the miss a cold build starts with
		t.Fatal("empty store reported a hit")
	}
	st.Put(recStep)
	_, _, recMain := buildRecord(t, m, "main")
	st.Put(recMain) // evicts @step from the memory tier
	if _, _, ok := st.Get(recStep.Key, fStep); !ok {
		t.Error("an evicted pending record missed")
	}
	st.Put(recMain) // evicts @step again
	if err := st.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	if _, _, ok := st.Get(recStep.Key, fStep); !ok {
		t.Error("a flushed record that left the memory tier missed in its own session")
	}
	if got := hits(t, root, m, "step", "main"); !got["step"] || !got["main"] {
		t.Errorf("hits after flush = %v", got)
	}
}

// TestConcurrentFlushesOneDirectory: two Stores (two processes, say) that
// put and flush into one directory at the same time leave both sets of
// records readable, with no torn file and no temp file behind.
func TestConcurrentFlushesOneDirectory(t *testing.T) {
	dir := t.TempDir()
	m := compile(t)
	mod := ir.ModuleFingerprint(m)
	var wg sync.WaitGroup
	for _, name := range []string{"step", "main"} {
		s, err := abscache.Open(dir, m, 0)
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		f, g, rec := buildRecord(t, m, name)
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.Put(rec)
			// Records under other alias-stack names: one more segment per flush.
			for i := 0; i < 20; i++ {
				s.Put(abscache.NewRecord(abscache.Key(mod, fmt.Sprint("stack", i), name), f, g))
				if err := s.Flush(); err != nil {
					t.Errorf("flush: %v", err)
				}
			}
			if err := s.Close(); err != nil {
				t.Errorf("close: %v", err)
			}
		}()
	}
	wg.Wait()
	if got := hits(t, dir, m, "step", "main"); !got["step"] || !got["main"] {
		t.Errorf("hits after concurrent flushes = %v, want both", got)
	}
	res, err := abscache.GC(dir)
	if err != nil {
		t.Fatal(err)
	}
	if res.Corrupt != 0 || res.Temp != 0 {
		t.Errorf("gc = %+v: corrupt frames or temp files left behind", res)
	}
}

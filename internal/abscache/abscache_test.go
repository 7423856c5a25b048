package abscache_test

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"noelle/internal/abscache"
	"noelle/internal/ir"
	"noelle/internal/irtext"
	"noelle/internal/minic"
	"noelle/internal/passes"
	"noelle/internal/pdg"
)

const testSrc = `
int grid[64];

int step(int k) {
  int acc = 0;
  for (int i = 0; i < 64; i = i + 1) {
    grid[i] = grid[i] + k;
    acc = acc + grid[i];
  }
  return acc;
}

int main() {
  int total = 0;
  for (int r = 0; r < 8; r = r + 1) {
    total = total + step(r);
  }
  print_i64(total);
  return 0;
}
`

func compile(t *testing.T) *ir.Module {
	t.Helper()
	m, err := minic.Compile("abscache_test", testSrc)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	passes.Optimize(m)
	return m
}

func buildRecord(t *testing.T, m *ir.Module, name string) (*ir.Function, *pdg.Graph, *abscache.Record) {
	t.Helper()
	f := m.FunctionByName(name)
	if f == nil {
		t.Fatalf("no function @%s", name)
	}
	g := pdg.NewBuilder(m).FunctionPDG(f)
	return f, g, abscache.NewRecord(keyOf(m, name), f, g)
}

// keyOf is the store key of m's function name under the full alias stack.
func keyOf(m *ir.Module, name string) ir.Fingerprint {
	return abscache.Key(ir.ModuleFingerprint(m), "full", name)
}

// graphShape renders a graph as a set of positional edge strings so two
// graphs over different instruction pointers can be compared.
func graphShape(f *ir.Function, g *pdg.Graph) map[string]int {
	pos := map[*ir.Instr]int{}
	f.Instrs(func(in *ir.Instr) bool {
		pos[in] = len(pos)
		return true
	})
	out := map[string]int{}
	g.Edges(func(e *pdg.Edge) bool {
		out[edgeKey(pos[e.From], pos[e.To], pdg.EncodeEdgeFlags(e))]++
		return true
	})
	return out
}

func edgeKey(from, to int, flags string) string {
	return fmt.Sprintf("%d:%d:%s", from, to, flags)
}

func sameShape(t *testing.T, f *ir.Function, want, got *pdg.Graph) {
	t.Helper()
	ws, gs := graphShape(f, want), graphShape(f, got)
	if len(ws) != len(gs) {
		t.Fatalf("@%s: %d distinct edges, want %d", f.Nam, len(gs), len(ws))
	}
	for k, n := range ws {
		if gs[k] != n {
			t.Fatalf("@%s: edge %s count %d, want %d", f.Nam, k, gs[k], n)
		}
	}
}

func TestCodecRoundTrip(t *testing.T) {
	m := compile(t)
	f, g, rec := buildRecord(t, m, "step")

	back, err := abscache.Decode(abscache.Encode(rec))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if back.Key != rec.Key || back.FuncName != rec.FuncName || back.NumInstrs != rec.NumInstrs {
		t.Fatalf("header mismatch: %+v vs %+v", back, rec)
	}
	if len(back.Edges) != len(rec.Edges) {
		t.Fatalf("payload mismatch")
	}
	rebuilt, err := back.BuildGraph(f)
	if err != nil {
		t.Fatalf("BuildGraph: %v", err)
	}
	if rebuilt.NumEdges() != g.NumEdges() || rebuilt.NumNodes() != g.NumNodes() {
		t.Fatalf("rebuilt %d nodes/%d edges, want %d/%d",
			rebuilt.NumNodes(), rebuilt.NumEdges(), g.NumNodes(), g.NumEdges())
	}
	sameShape(t, f, g, rebuilt)
}

func TestDecodeRejectsCorruption(t *testing.T) {
	m := compile(t)
	_, _, rec := buildRecord(t, m, "step")
	data := abscache.Encode(rec)

	// Flip one payload byte: the checksum must catch it.
	for _, i := range []int{7, len(data) / 2, len(data) - 5} {
		bad := append([]byte(nil), data...)
		bad[i] ^= 0x40
		if _, err := abscache.Decode(bad); err == nil {
			t.Errorf("decode accepted corruption at byte %d", i)
		}
	}
	if _, err := abscache.Decode(data[:len(data)-3]); err == nil {
		t.Error("decode accepted truncated record")
	}
	if _, err := abscache.Decode(nil); err == nil {
		t.Error("decode accepted empty record")
	}
}

func TestStoreWarmAcrossSessions(t *testing.T) {
	dir := t.TempDir()
	m1 := compile(t)

	// Session 1 (cold): build, put, close.
	s1, err := abscache.Open(dir, m1, 0)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	f1, g1, rec := buildRecord(t, m1, "step")
	if _, _, ok := s1.Get(rec.Key, f1); ok {
		t.Fatal("empty store reported a hit")
	}
	s1.Put(rec)
	if err := s1.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	st := s1.Stats()
	if st.Misses != 1 || st.Puts != 1 {
		t.Fatalf("session 1 stats = %+v", st)
	}

	// Session 2 simulates a new process: a fresh module parse (new
	// pointers) and a fresh store over the same directory.
	m2 := compile(t)
	f2 := m2.FunctionByName("step")
	key2 := keyOf(m2, "step")
	if key2 != rec.Key {
		t.Fatalf("recompiled key drifted: %s vs %s", key2.Short(), rec.Key.Short())
	}
	s2, err := abscache.Open(dir, m2, 0)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	g2, _, ok := s2.Get(key2, f2)
	if !ok {
		t.Fatal("warm session missed")
	}
	sameShape(t, f1, g1, mustRemap(t, f1, f2, g2))
	if err := s2.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	counters, err := abscache.ReadStatsFile(dir)
	if err != nil {
		t.Fatalf("stats: %v", err)
	}
	if counters["total.hits"] != 1 || counters["total.misses"] != 1 || counters["last.misses"] != 0 || counters["last.hits"] != 1 {
		t.Fatalf("persisted counters = %v", counters)
	}
}

// mustRemap re-expresses g (over f2's instructions) as a graph over f1's
// so shapes can be compared: both functions are the same program text.
func mustRemap(t *testing.T, f1, f2 *ir.Function, g *pdg.Graph) *pdg.Graph {
	t.Helper()
	var i1 []*ir.Instr
	f1.Instrs(func(in *ir.Instr) bool { i1 = append(i1, in); return true })
	pos2 := map[*ir.Instr]int{}
	f2.Instrs(func(in *ir.Instr) bool { pos2[in] = len(pos2); return true })
	if len(i1) != len(pos2) {
		t.Fatal("function shapes differ")
	}
	var edges []pdg.Edge
	g.Edges(func(e *pdg.Edge) bool {
		ne := pdg.Edge{From: i1[pos2[e.From]], To: i1[pos2[e.To]]}
		if err := pdg.DecodeEdgeFlags(&ne, pdg.EncodeEdgeFlags(e)); err != nil {
			t.Fatalf("flags: %v", err)
		}
		edges = append(edges, ne)
		return true
	})
	return pdg.NewGraph(i1, edges, nil, nil)
}

// TestStoreDegradesOnCorruptedRecord: a flipped byte inside one record of
// a segment makes exactly that record miss (a rebuild, never a graph);
// the segment's other records still hit, and gc drops the damaged one.
func TestStoreDegradesOnCorruptedRecord(t *testing.T) {
	dir := t.TempDir()
	m := compile(t)
	putAndClose(t, dir, m, 0, "step", "main")

	seg := onlySegment(t, dir, m)
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	frame := frameOf(t, data, "step")
	data[(frame[0]+frame[1])/2] ^= 0xff
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatalf("write: %v", err)
	}

	s, err := abscache.Open(dir, m, 0)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	for _, c := range []struct {
		name string
		hit  bool
	}{{"step", false}, {"main", true}} {
		f := m.FunctionByName(c.name)
		if _, _, ok := s.Get(keyOf(m, c.name), f); ok != c.hit {
			t.Errorf("@%s: hit = %v after corrupting @step's record, want %v", c.name, ok, c.hit)
		}
	}
	if st := s.Stats(); st.Misses != 1 || st.Hits != 1 {
		t.Fatalf("stats after corruption = %+v", st)
	}

	// gc compacts the intact record and drops the damaged one.
	res, err := abscache.GC(dir)
	if err != nil {
		t.Fatalf("gc: %v", err)
	}
	if res.Corrupt != 1 || res.Kept != 1 || res.Superseded != 1 {
		t.Fatalf("gc = %+v, want 1 corrupt, 1 kept, 1 superseded", res)
	}
}

// TestOlderVersionRecordsMissAndGCDrops: a record of the version-1
// format, whose key meant something else, reads as a miss, and gc drops
// it as corrupt.
func TestOlderVersionRecordsMissAndGCDrops(t *testing.T) {
	dir := t.TempDir()
	m := compile(t)
	putAndClose(t, dir, m, 0, "step")
	seg := onlySegment(t, dir, m)
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	// Frame, magic, then the u16 version: rewrite it to 1 and reseal.
	binary.LittleEndian.PutUint16(data[4+4:], 1)
	body := data[4 : len(data)-4]
	binary.LittleEndian.PutUint32(data[len(data)-4:], crc32.ChecksumIEEE(body))
	if _, err := abscache.Decode(data[4:]); err == nil || !strings.Contains(err.Error(), "unsupported record version 1") {
		t.Fatalf("decode of a version-1 record: %v", err)
	}
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if got := hits(t, dir, m, "step"); got["step"] {
		t.Error("a version-1 record hit")
	}
	res, err := abscache.GC(dir)
	if err != nil {
		t.Fatal(err)
	}
	if res.Corrupt != 1 || res.Kept != 0 || res.Superseded != 1 {
		t.Errorf("gc = %+v, want the version-1 record dropped with its segment", res)
	}
}

func TestScanGCClear(t *testing.T) {
	dir := t.TempDir()
	m := compile(t)
	putAndClose(t, dir, m, 0, "step", "main")

	mods, err := abscache.ScanRoot(dir)
	if err != nil {
		t.Fatalf("scan: %v", err)
	}
	if len(mods) != 1 || mods[0].Segments != 1 || mods[0].Records != 2 || len(mods[0].Entries) != 2 {
		t.Fatalf("scan = %+v", mods)
	}

	// Drop a segment holding an orphan record (one the index does not
	// name), a stale temp file and a record file of the old layout; gc
	// must compact the live records into one segment and sweep the rest.
	modDir := mods[0].Dir
	orphan := abscache.Encode(&abscache.Record{Key: ir.Fingerprint{1, 2, 3}, FuncName: "ghost"})
	frame := binary.LittleEndian.AppendUint32(nil, uint32(len(orphan)))
	if err := os.WriteFile(filepath.Join(modDir, "0123.seg"), append(frame, orphan...), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(modDir, ".tmp-123"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(modDir, "0123.rec"), orphan, 0o644); err != nil {
		t.Fatal(err)
	}
	res, err := abscache.GC(dir)
	if err != nil {
		t.Fatalf("gc: %v", err)
	}
	// The session's own segment holds exactly the live records, so it is
	// the compaction: only the orphan's segment is superseded.
	want := abscache.GCResult{Kept: 2, Orphaned: 1, Superseded: 1, Temp: 1, Legacy: 1}
	if res != want {
		t.Fatalf("gc = %+v, want %+v", res, want)
	}
	mods, _ = abscache.ScanRoot(dir)
	if mods[0].Segments != 1 || mods[0].Records != 2 {
		t.Fatalf("gc did not leave the live records in one segment: %+v", mods)
	}
	// A compacted store is its own compaction.
	if res, err := abscache.GC(dir); err != nil || res != (abscache.GCResult{Kept: 2}) {
		t.Fatalf("second gc = %+v, %v", res, err)
	}
	if _, _, err := abscache.FindRecord(dir, "step"); err != nil {
		t.Fatalf("find after gc: %v", err)
	}

	if err := abscache.Clear(dir); err != nil {
		t.Fatalf("clear: %v", err)
	}
	mods, _ = abscache.ScanRoot(dir)
	if len(mods) != 0 {
		t.Fatalf("clear left %+v", mods)
	}
}

// TestFingerprintStableAcrossPrintParse is the irtext leg of the
// fingerprint-stability contract: a print→parse round trip (which may
// uniquify SSA names and drops assigned IDs) preserves the module
// fingerprint, so every function's store key.
func TestFingerprintStableAcrossPrintParse(t *testing.T) {
	m := compile(t)
	m.AssignIDs()
	back, err := irtext.Parse(ir.Print(m))
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	for _, f := range m.Functions {
		if a, b := keyOf(m, f.Nam), keyOf(back, f.Nam); a != b {
			t.Errorf("@%s: key %s != %s after print→parse", f.Nam, b.Short(), a.Short())
		}
	}
}

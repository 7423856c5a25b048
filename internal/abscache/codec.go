// Package abscache is a persistent, content-addressed store for NOELLE
// abstractions. The expensive abstraction — a function PDG built over
// whole-module alias analysis — is serialized into a versioned binary
// record keyed by what it depends on (Key: the module's structural
// fingerprint, the alias stack and the function's name), fronted by an
// in-memory LRU and backed by immutable segment files, one per flush,
// each committed with one crash-safe write-temp-then-rename (in the
// spirit of rockyardkv's SST + inspection tooling). A warm load decodes
// records instead of re-running the Andersen solve; any mismatch —
// version, checksum, instruction count — degrades to a rebuild, never to
// a wrong graph. See README.md in this directory for the on-disk format
// and the invalidation rules.
package abscache

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"sort"

	"noelle/internal/ir"
	"noelle/internal/pdg"
)

// Record format version. Bump on any change to the byte layout or to what
// a key means; readers reject versions they do not understand (degrading
// to a rebuild).
const codecVersion = 2

// recordMagic leads every record.
var recordMagic = [4]byte{'N', 'A', 'B', 'S'}

// EdgeRec is one serialized dependence edge. Endpoints are linear
// instruction positions within the function (block order), which are
// stable across renaming, cloning, and ID renumbering. Flags reuse the
// pdg/embed.go encoding ([c][m]<class>[M][L]).
type EdgeRec struct {
	From, To int
	Flags    string
}

// Key derives a record's key from everything a function PDG depends on:
// the module's structural fingerprint (whole-module points-to lets a
// function's graph depend on its callers, its callees and every global),
// the alias stack the graph was built over, and the function's name.
func Key(module ir.Fingerprint, aliasStack, fn string) ir.Fingerprint {
	b := append([]byte("noelle.key.v2"), module[:]...)
	b = appendStr(b, aliasStack)
	b = appendStr(b, fn)
	return sha256.Sum256(b)
}

// Record is the cached PDG of one function. It never changes once built.
type Record struct {
	Key       ir.Fingerprint
	FuncName  string
	NumInstrs int
	Edges     []EdgeRec
}

// NewRecord captures f's PDG into a record under key. Edges whose
// endpoints fall outside f (malformed graphs) are skipped.
func NewRecord(key ir.Fingerprint, f *ir.Function, g *pdg.Graph) *Record {
	pos := instrPositions(f)
	rec := &Record{Key: key, FuncName: f.Nam, NumInstrs: len(pos)}
	g.Edges(func(e *pdg.Edge) bool {
		from, okF := pos[e.From]
		to, okT := pos[e.To]
		if okF && okT {
			rec.Edges = append(rec.Edges, EdgeRec{From: from, To: to, Flags: pdg.EncodeEdgeFlags(e)})
		}
		return true
	})
	sort.Slice(rec.Edges, func(i, j int) bool {
		a, b := rec.Edges[i], rec.Edges[j]
		if a.From != b.From {
			return a.From < b.From
		}
		if a.To != b.To {
			return a.To < b.To
		}
		return a.Flags < b.Flags
	})
	return rec
}

// BuildGraph reconstructs the function PDG from the record. It fails when
// the record's shape no longer matches f — the caller must rebuild. The
// edges come from one contiguous allocation and the graph is assembled
// through the bulk constructor with the endpoint positions the record
// already holds: warm loads are allocation-light. Everything it allocates
// is sized by f and by the decoded edges, never by a count the record
// claims.
func (r *Record) BuildGraph(f *ir.Function) (*pdg.Graph, error) {
	if n := f.NumInstrs(); n != r.NumInstrs {
		return nil, fmt.Errorf("abscache: record for @%s has %d instructions, function has %d",
			r.FuncName, r.NumInstrs, n)
	}
	instrs := make([]*ir.Instr, 0, r.NumInstrs)
	f.Instrs(func(in *ir.Instr) bool {
		instrs = append(instrs, in)
		return true
	})
	edges := make([]pdg.Edge, len(r.Edges))
	from := make([]int32, len(r.Edges))
	to := make([]int32, len(r.Edges))
	for i, er := range r.Edges {
		if er.From < 0 || er.From >= len(instrs) || er.To < 0 || er.To >= len(instrs) {
			return nil, fmt.Errorf("abscache: edge %d>%d out of range in record for @%s", er.From, er.To, r.FuncName)
		}
		e := &edges[i]
		e.From, e.To = instrs[er.From], instrs[er.To]
		if err := pdg.DecodeEdgeFlags(e, er.Flags); err != nil {
			return nil, err
		}
		from[i], to[i] = int32(er.From), int32(er.To)
	}
	return pdg.NewGraph(instrs, edges, from, to), nil
}

// instrPositions maps every instruction of f to its linear position.
func instrPositions(f *ir.Function) map[*ir.Instr]int {
	pos := map[*ir.Instr]int{}
	f.Instrs(func(in *ir.Instr) bool {
		pos[in] = len(pos)
		return true
	})
	return pos
}

// Encode serializes the record:
//
//	magic "NABS" | version u16 | key 32B | name | numInstrs
//	| numEdges | edges (from, to, flags)
//	| crc32(IEEE) of everything before, u32 LE
//
// Integers are uvarints, strings are length-prefixed.
func Encode(r *Record) []byte { return appendRecord(nil, r) }

// appendRecord appends r's encoding to b.
func appendRecord(b []byte, r *Record) []byte {
	start := len(b)
	b = append(b, recordMagic[:]...)
	b = binary.LittleEndian.AppendUint16(b, codecVersion)
	b = append(b, r.Key[:]...)
	b = appendStr(b, r.FuncName)
	b = binary.AppendUvarint(b, uint64(r.NumInstrs))
	b = binary.AppendUvarint(b, uint64(len(r.Edges)))
	for _, e := range r.Edges {
		b = binary.AppendUvarint(b, uint64(e.From))
		b = binary.AppendUvarint(b, uint64(e.To))
		b = appendStr(b, e.Flags)
	}
	return binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(b[start:]))
}

// checkRecord verifies an encoded record's length, checksum, magic and
// version, and returns the payload after the version: the key first.
func checkRecord(data []byte) ([]byte, error) {
	if len(data) < len(recordMagic)+2+32+4 {
		return nil, fmt.Errorf("abscache: record truncated (%d bytes)", len(data))
	}
	payload, sum := data[:len(data)-4], binary.LittleEndian.Uint32(data[len(data)-4:])
	if crc32.ChecksumIEEE(payload) != sum {
		return nil, fmt.Errorf("abscache: record checksum mismatch")
	}
	if !bytes.Equal(payload[:4], recordMagic[:]) {
		return nil, fmt.Errorf("abscache: bad record magic")
	}
	if ver := binary.LittleEndian.Uint16(payload[4:6]); ver != codecVersion {
		return nil, fmt.Errorf("abscache: unsupported record version %d", ver)
	}
	return payload[6:], nil
}

// Decode parses a record, verifying magic, version and checksum. Every
// failure is an error — corrupt records must read as "absent", not as a
// wrong graph.
func Decode(data []byte) (*Record, error) {
	payload, err := checkRecord(data)
	if err != nil {
		return nil, err
	}
	rec := &Record{Key: ir.Fingerprint(payload[:32])}
	d := decoder{b: payload[32:]}
	rec.FuncName = string(d.bytes())
	rec.NumInstrs = d.int()
	// Every edge takes at least three bytes, which bounds the allocation.
	if numEdges := d.int(); numEdges > len(d.b)/3 {
		d.fail("abscache: %d edges cannot fit in %d bytes", numEdges, len(d.b))
	} else if numEdges > 0 {
		rec.Edges = make([]EdgeRec, numEdges)
		flags := map[string]string{} // intern the handful of distinct flag strings
		for i := range rec.Edges {
			e := &rec.Edges[i]
			e.From, e.To = d.int(), d.int()
			b := d.bytes()
			f, ok := flags[string(b)]
			if !ok {
				f = string(b)
				flags[f] = f
			}
			e.Flags = f
		}
	}
	if d.err == nil && len(d.b) != 0 {
		d.fail("abscache: %d trailing bytes in record", len(d.b))
	}
	if d.err != nil {
		return nil, d.err
	}
	return rec, nil
}

func appendStr(b []byte, s string) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

// decoder reads a record payload. The first malformed read records an
// error, and every read after it returns zero.
type decoder struct {
	b   []byte
	err error
}

func (d *decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf(format, args...)
	}
	d.b = nil
}

func (d *decoder) int() int {
	v, n := binary.Uvarint(d.b)
	switch {
	case n <= 0:
		d.fail("abscache: record truncated")
		return 0
	case v > 1<<31:
		d.fail("abscache: implausible count %d", v)
		return 0
	}
	d.b = d.b[n:]
	return int(v)
}

func (d *decoder) bytes() []byte {
	n := d.int()
	if n > len(d.b) {
		d.fail("abscache: string length %d exceeds record", n)
		return nil
	}
	s := d.b[:n]
	d.b = d.b[n:]
	return s
}

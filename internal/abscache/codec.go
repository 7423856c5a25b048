// Package abscache is a persistent, content-addressed store for NOELLE
// abstractions. The expensive abstractions — per-function PDGs built over
// whole-module alias analysis, and the loop summaries derived from them —
// are serialized into versioned binary records keyed by a structural
// function fingerprint (ir.Fingerprint), fronted by an in-memory LRU and
// backed by an append-friendly on-disk layout with crash-safe
// write-temp-then-rename commits (in the spirit of rockyardkv's SST +
// inspection tooling). A warm load decodes records instead of re-running
// the Andersen solve; any mismatch — version, checksum, instruction count
// — degrades to a rebuild, never to a wrong graph. See README.md in this
// directory for the on-disk format and the invalidation rules.
package abscache

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"sort"

	"noelle/internal/ir"
	"noelle/internal/pdg"
)

// Record format version. Bump on any change to the byte layout; readers
// reject versions they do not understand (degrading to a rebuild).
const codecVersion = 1

// recordMagic leads every record file.
var recordMagic = [4]byte{'N', 'A', 'B', 'S'}

// EdgeRec is one serialized dependence edge. Endpoints are linear
// instruction positions within the function (block order), which are
// stable across renaming, cloning, and ID renumbering. Flags reuse the
// pdg/embed.go encoding ([c][m]<class>[M][L]).
type EdgeRec struct {
	From, To int
	Flags    string
}

// LoopSummary is the per-loop abstraction digest stored alongside the
// PDG: the LS shape bits plus the IV/INV/RD counts the manager derived.
// Summaries are inspection data (noelle-cache dump), not enough to
// reconstruct the L abstraction.
type LoopSummary struct {
	Header     int // linear position of the header block within the function
	Depth      int
	NumInstrs  int
	DoWhile    bool
	IVs        int
	HasGovIV   bool
	Invariants int
	Reductions int
}

// Record is the cached abstraction bundle of one function.
type Record struct {
	Fingerprint ir.Fingerprint
	FuncName    string
	NumInstrs   int
	Edges       []EdgeRec
	Loops       []LoopSummary
}

// NewRecord captures f's PDG into a record keyed by fp. Edges whose
// endpoints fall outside f (malformed graphs) are skipped.
func NewRecord(fp ir.Fingerprint, f *ir.Function, g *pdg.Graph) *Record {
	pos := instrPositions(f)
	rec := &Record{Fingerprint: fp, FuncName: f.Nam, NumInstrs: len(pos)}
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
// already holds: warm loads are allocation-light.
func (r *Record) BuildGraph(f *ir.Function) (*pdg.Graph, error) {
	instrs := make([]*ir.Instr, 0, r.NumInstrs)
	f.Instrs(func(in *ir.Instr) bool {
		instrs = append(instrs, in)
		return true
	})
	if len(instrs) != r.NumInstrs {
		return nil, fmt.Errorf("abscache: record for @%s has %d instructions, function has %d",
			r.FuncName, r.NumInstrs, len(instrs))
	}
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
//	magic "NABS" | version u16 | fingerprint 32B | name | numInstrs
//	| numEdges | edges (from, to, flags) | numLoops | loop summaries
//	| crc32(IEEE) of everything before, u32 LE
//
// Integers are uvarints, strings are length-prefixed.
func Encode(r *Record) []byte {
	var b bytes.Buffer
	b.Write(recordMagic[:])
	var v [2]byte
	binary.LittleEndian.PutUint16(v[:], codecVersion)
	b.Write(v[:])
	b.Write(r.Fingerprint[:])
	putStr(&b, r.FuncName)
	putUvarint(&b, uint64(r.NumInstrs))
	putUvarint(&b, uint64(len(r.Edges)))
	for _, e := range r.Edges {
		putUvarint(&b, uint64(e.From))
		putUvarint(&b, uint64(e.To))
		putStr(&b, e.Flags)
	}
	putUvarint(&b, uint64(len(r.Loops)))
	for _, l := range r.Loops {
		putUvarint(&b, uint64(l.Header))
		putUvarint(&b, uint64(l.Depth))
		putUvarint(&b, uint64(l.NumInstrs))
		bits := byte(0)
		if l.DoWhile {
			bits |= 1
		}
		if l.HasGovIV {
			bits |= 2
		}
		b.WriteByte(bits)
		putUvarint(&b, uint64(l.IVs))
		putUvarint(&b, uint64(l.Invariants))
		putUvarint(&b, uint64(l.Reductions))
	}
	var crc [4]byte
	binary.LittleEndian.PutUint32(crc[:], crc32.ChecksumIEEE(b.Bytes()))
	b.Write(crc[:])
	return b.Bytes()
}

// Decode parses a record, verifying magic, version and checksum. Every
// failure is an error — corrupt records must read as "absent", not as a
// wrong graph.
func Decode(data []byte) (*Record, error) {
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
	rd := bytes.NewReader(payload[6:])
	rec := &Record{}
	if _, err := rd.Read(rec.Fingerprint[:]); err != nil {
		return nil, fmt.Errorf("abscache: record fingerprint: %w", err)
	}
	var err error
	if rec.FuncName, err = getStr(rd); err != nil {
		return nil, err
	}
	if rec.NumInstrs, err = getInt(rd); err != nil {
		return nil, err
	}
	numEdges, err := getInt(rd)
	if err != nil {
		return nil, err
	}
	if numEdges > 0 {
		rec.Edges = make([]EdgeRec, 0, numEdges)
	}
	flagCache := map[string]string{} // intern the handful of distinct flag strings
	for i := 0; i < numEdges; i++ {
		var e EdgeRec
		if e.From, err = getInt(rd); err != nil {
			return nil, err
		}
		if e.To, err = getInt(rd); err != nil {
			return nil, err
		}
		if e.Flags, err = getStr(rd); err != nil {
			return nil, err
		}
		if interned, ok := flagCache[e.Flags]; ok {
			e.Flags = interned
		} else {
			flagCache[e.Flags] = e.Flags
		}
		rec.Edges = append(rec.Edges, e)
	}
	numLoops, err := getInt(rd)
	if err != nil {
		return nil, err
	}
	for i := 0; i < numLoops; i++ {
		var l LoopSummary
		if l.Header, err = getInt(rd); err != nil {
			return nil, err
		}
		if l.Depth, err = getInt(rd); err != nil {
			return nil, err
		}
		if l.NumInstrs, err = getInt(rd); err != nil {
			return nil, err
		}
		bits, err := rd.ReadByte()
		if err != nil {
			return nil, fmt.Errorf("abscache: loop bits: %w", err)
		}
		l.DoWhile = bits&1 != 0
		l.HasGovIV = bits&2 != 0
		if l.IVs, err = getInt(rd); err != nil {
			return nil, err
		}
		if l.Invariants, err = getInt(rd); err != nil {
			return nil, err
		}
		if l.Reductions, err = getInt(rd); err != nil {
			return nil, err
		}
		rec.Loops = append(rec.Loops, l)
	}
	if rd.Len() != 0 {
		return nil, fmt.Errorf("abscache: %d trailing bytes in record", rd.Len())
	}
	return rec, nil
}

func putUvarint(b *bytes.Buffer, v uint64) {
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], v)
	b.Write(buf[:n])
}

func putStr(b *bytes.Buffer, s string) {
	putUvarint(b, uint64(len(s)))
	b.WriteString(s)
}

func getInt(rd *bytes.Reader) (int, error) {
	v, err := binary.ReadUvarint(rd)
	if err != nil {
		return 0, fmt.Errorf("abscache: record truncated: %w", err)
	}
	if v > 1<<31 {
		return 0, fmt.Errorf("abscache: implausible count %d", v)
	}
	return int(v), nil
}

func getStr(rd *bytes.Reader) (string, error) {
	n, err := getInt(rd)
	if err != nil {
		return "", err
	}
	if n > rd.Len() {
		return "", fmt.Errorf("abscache: string length %d exceeds record", n)
	}
	buf := make([]byte, n)
	if _, err := rd.Read(buf); err != nil {
		return "", err
	}
	return string(buf), nil
}

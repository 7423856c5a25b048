package abscache

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"os"
	"path/filepath"
	"strings"

	"noelle/internal/ir"
)

// A segment is one immutable file of records, written by one Flush (or
// one gc compaction) with one write-temp-then-rename commit. It is a run
// of frames, each a u32 LE length and then one encoded record that keeps
// its own checksum, and it is named by a hash of its content:
//
//	<module-key>/<content-hash>.seg
//
// A damaged frame costs only its own record. A frame cut short by a torn
// write ends the segment, and the frames before it still serve.
const segExt = ".seg"

// appendFrame appends one framed record to a segment being built.
func appendFrame(seg []byte, r *Record) []byte {
	at := len(seg)
	seg = appendRecord(append(seg, 0, 0, 0, 0), r)
	binary.LittleEndian.PutUint32(seg[at:], uint32(len(seg)-at-4))
	return seg
}

// scanFrames calls fn with each record of a segment, in order, and
// reports whether the segment ends in a torn frame.
func scanFrames(seg []byte, fn func(rec []byte)) (torn bool) {
	for len(seg) > 0 {
		if len(seg) < 4 {
			return true
		}
		n := binary.LittleEndian.Uint32(seg)
		if uint64(n) > uint64(len(seg)-4) {
			return true
		}
		fn(seg[4 : 4+n])
		seg = seg[4+n:]
	}
	return false
}

// writeSegment commits seg to dir under its content hash and returns the
// file name.
func writeSegment(dir string, seg []byte) (string, error) {
	sum := sha256.Sum256(seg)
	name := hex.EncodeToString(sum[:16]) + segExt
	return name, commitFile(filepath.Join(dir, name), seg)
}

// segments is what one module directory's segment files hold.
type segments struct {
	files   int                       // segment files read
	bytes   int64                     // their total size
	records map[ir.Fingerprint][]byte // one intact record per key
	corrupt int                       // frames that failed their checksum, magic or version, and torn tails
}

// readSegments reads every segment of dir. Only intact records are kept;
// records under one key are interchangeable (a record never changes once
// built), so the first one read serves. An unreadable directory or file
// reads as empty: the store degrades to cold.
func readSegments(dir string) segments {
	out := segments{records: map[ir.Fingerprint][]byte{}}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return out
	}
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), segExt) {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			continue
		}
		out.files++
		out.bytes += int64(len(data))
		torn := scanFrames(data, func(rec []byte) {
			payload, err := checkRecord(rec)
			if err != nil {
				out.corrupt++
				return
			}
			if key := ir.Fingerprint(payload[:32]); out.records[key] == nil {
				out.records[key] = rec
			}
		})
		if torn {
			out.corrupt++
		}
	}
	return out
}

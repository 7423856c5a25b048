package abscache

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

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
	records map[ir.Fingerprint][]byte // the newest intact record of each fingerprint
	corrupt int                       // frames that failed their checksum, magic or version, and torn tails
}

// readSegments reads every segment of dir, oldest first by modification
// time, so a record written again by a later flush (with more loop
// summaries) overrides the earlier copy. Only intact records are kept. An
// unreadable directory or file reads as empty: the store degrades to cold.
func readSegments(dir string) segments {
	out := segments{records: map[ir.Fingerprint][]byte{}}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return out
	}
	type seg struct {
		name string
		mod  time.Time
	}
	var segs []seg
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), segExt) {
			continue
		}
		if info, err := e.Info(); err == nil {
			segs = append(segs, seg{e.Name(), info.ModTime()})
		}
	}
	sort.Slice(segs, func(i, j int) bool {
		if !segs[i].mod.Equal(segs[j].mod) {
			return segs[i].mod.Before(segs[j].mod)
		}
		return segs[i].name < segs[j].name
	})
	for _, sg := range segs {
		data, err := os.ReadFile(filepath.Join(dir, sg.name))
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
			out.records[ir.Fingerprint(payload[:32])] = rec
		})
		if torn {
			out.corrupt++
		}
	}
	return out
}

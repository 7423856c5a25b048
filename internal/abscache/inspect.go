package abscache

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"noelle/internal/ir"
)

// This file is the inspection surface behind cmd/noelle-cache — the
// abscache analogue of rockyardkv's ldb/sstdump: offline tooling that
// walks the on-disk layout without needing the module the records were
// built from.

// ModuleInfo describes one module directory of a store root.
type ModuleInfo struct {
	Key      string
	Dir      string
	Segments int   // segment files
	Records  int   // distinct intact records across them
	Bytes    int64 // segment bytes
	Entries  []IndexEntry
}

// ScanRoot walks every module directory under root, reading its segments
// and its index. A root that does not exist scans empty.
func ScanRoot(root string) ([]ModuleInfo, error) {
	dirs, err := os.ReadDir(root)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("abscache: %w", err)
	}
	var out []ModuleInfo
	for _, d := range dirs {
		if !d.IsDir() {
			continue
		}
		mi := ModuleInfo{Key: d.Name(), Dir: filepath.Join(root, d.Name())}
		segs := readSegments(mi.Dir)
		mi.Segments, mi.Records, mi.Bytes = segs.files, len(segs.records), segs.bytes
		mi.Entries = readIndexEntries(mi.Dir)
		out = append(out, mi)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out, nil
}

func readIndexEntries(dir string) []IndexEntry {
	data, err := os.ReadFile(filepath.Join(dir, indexName))
	if err != nil {
		return nil
	}
	return parseIndex(data)
}

// FindRecord locates and decodes the newest record stored under fnName in
// any module directory of the root (noelle-cache dump).
func FindRecord(root, fnName string) (*Record, string, error) {
	mods, err := ScanRoot(root)
	if err != nil {
		return nil, "", err
	}
	for _, mi := range mods {
		for _, e := range mi.Entries {
			if e.Name != fnName {
				continue
			}
			key, err := ir.ParseFingerprint(e.Key)
			if err != nil {
				return nil, "", fmt.Errorf("abscache: record for @%s: %w", fnName, err)
			}
			data, ok := readSegments(mi.Dir).records[key]
			if !ok {
				return nil, "", fmt.Errorf("abscache: record for @%s: no intact record %s in %s", fnName, key.Short(), mi.Dir)
			}
			rec, err := Decode(data)
			if err != nil {
				return nil, "", fmt.Errorf("abscache: record for @%s: %w", fnName, err)
			}
			return rec, mi.Key, nil
		}
	}
	return nil, "", fmt.Errorf("abscache: no record for @%s under %s", fnName, root)
}

// GCResult reports what a garbage-collection pass kept and removed.
type GCResult struct {
	Kept       int // records compacted into the module's one segment
	Corrupt    int // frames that failed their checksum, magic or version, and torn tails
	Orphaned   int // intact records no index entry names
	Superseded int // segment files replaced by the compacted one
	Temp       int // leftover .tmp-* files from interrupted commits
	Legacy     int // *.rec files of the one-file-per-record layout
}

// GC compacts every module directory: the records its index still names
// (the latest per function name) go into one new segment, and then every
// other segment, leftover temp file and legacy *.rec file is deleted.
// Corrupt records, records of an older format version, and orphaned
// records (those of earlier versions of the module) are what compaction
// leaves behind. Run it while no process writes to the store: a segment
// committed during the pass is deleted with the superseded ones, which
// costs that process's warmth, never correctness.
func GC(root string) (GCResult, error) {
	var res GCResult
	mods, err := ScanRoot(root)
	if err != nil {
		return res, err
	}
	for _, mi := range mods {
		segs := readSegments(mi.Dir)
		res.Corrupt += segs.corrupt
		var keep []*Record
		kept := map[ir.Fingerprint]bool{}
		for _, e := range mi.Entries {
			key, err := ir.ParseFingerprint(e.Key)
			if err != nil || kept[key] {
				continue
			}
			if data, ok := segs.records[key]; ok {
				if rec, err := Decode(data); err == nil {
					kept[key] = true
					keep = append(keep, rec)
				}
			}
		}
		res.Kept += len(keep)
		res.Orphaned += len(segs.records) - len(keep)
		compacted := ""
		if len(keep) > 0 {
			sort.Slice(keep, func(i, j int) bool {
				return bytes.Compare(keep[i].Key[:], keep[j].Key[:]) < 0
			})
			var seg []byte
			for _, rec := range keep {
				seg = appendFrame(seg, rec)
			}
			if compacted, err = writeSegment(mi.Dir, seg); err != nil {
				return res, err
			}
		}
		files, err := os.ReadDir(mi.Dir)
		if err != nil {
			continue
		}
		for _, f := range files {
			name := f.Name()
			var count *int
			switch {
			case strings.HasPrefix(name, ".tmp-"):
				count = &res.Temp
			case strings.HasSuffix(name, segExt) && name != compacted:
				count = &res.Superseded
			case strings.HasSuffix(name, ".rec"):
				count = &res.Legacy
			default:
				continue
			}
			if os.Remove(filepath.Join(mi.Dir, name)) == nil {
				*count++
			}
		}
	}
	return res, nil
}

// Clear removes every module directory and the stats file under root,
// leaving the root directory itself in place.
func Clear(root string) error {
	dirs, err := os.ReadDir(root)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("abscache: %w", err)
	}
	for _, d := range dirs {
		path := filepath.Join(root, d.Name())
		if d.IsDir() {
			if err := os.RemoveAll(path); err != nil {
				return fmt.Errorf("abscache: %w", err)
			}
		} else if d.Name() == statsName {
			if err := os.Remove(path); err != nil {
				return fmt.Errorf("abscache: %w", err)
			}
		}
	}
	return nil
}

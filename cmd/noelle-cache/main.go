// noelle-cache inspects and maintains the persistent abstraction store
// (internal/abscache) that noelle-load populates via -cache-dir — the
// NOELLE analogue of rockyardkv's ldb/sstdump inspection tools.
//
// Usage: noelle-cache -dir DIR <command>
//
//	stats      store-wide totals: modules, segments, records, bytes, and
//	           the hit/miss/put counters sessions fold into the stats file
//	           (last.* describes the most recent session — a fully warm
//	           run shows last.misses=0); -json renders the same data
//	           through the abscache.RootStats codec the noelle-serve
//	           stats endpoint also speaks
//	ls         every module directory with its segments and indexed
//	           functions
//	dump FN    decode function FN's latest record from the segments: its
//	           edges (positional, with the pdg flag encoding)
//	gc         compact each module's records the index still names (the
//	           latest per function) into one segment, then delete
//	           superseded segments, leftover temp files and legacy *.rec
//	           files; corrupt records, records of an older format and
//	           records of earlier versions of the module are left behind
//	clear      delete every record, index and counter under the root
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"

	"noelle/internal/abscache"
)

func main() {
	dir := flag.String("dir", "", "abstraction store root (the noelle-load -cache-dir value)")
	jsonOut := flag.Bool("json", false, "render stats as JSON (the abscache.RootStats codec the noelle-serve stats endpoint also speaks)")
	flag.Parse()
	if *dir == "" || flag.NArg() < 1 {
		usage()
	}
	var err error
	switch cmd := flag.Arg(0); cmd {
	case "stats":
		if *jsonOut {
			err = statsJSON(*dir)
		} else {
			err = stats(*dir)
		}
	case "ls":
		err = ls(*dir)
	case "dump":
		if flag.NArg() != 2 {
			usage()
		}
		err = dump(*dir, flag.Arg(1))
	case "gc":
		err = gc(*dir)
	case "clear":
		err = abscache.Clear(*dir)
	default:
		usage()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: noelle-cache -dir DIR [-json] <stats|ls|dump FN|gc|clear>")
	os.Exit(2)
}

// statsJSON renders the store root through the shared RootStats codec.
func statsJSON(dir string) error {
	rs, err := abscache.CollectRootStats(dir)
	if err != nil {
		return err
	}
	data, err := json.MarshalIndent(rs, "", "  ")
	if err != nil {
		return err
	}
	fmt.Println(string(data))
	return nil
}

func stats(dir string) error {
	mods, err := abscache.ScanRoot(dir)
	if err != nil {
		return err
	}
	segments, records, indexed := 0, 0, 0
	var bytes int64
	for _, mi := range mods {
		segments += mi.Segments
		records += mi.Records
		bytes += mi.Bytes
		indexed += len(mi.Entries)
	}
	fmt.Printf("store %s: %d modules, %d records (%d indexed) in %d segments, %d bytes\n",
		dir, len(mods), records, indexed, segments, bytes)
	counters, _ := abscache.ReadStatsFile(dir)
	if len(counters) == 0 {
		fmt.Println("no session counters recorded yet")
		return nil
	}
	keys := make([]string, 0, len(counters))
	for k := range counters {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("%s=%d\n", k, counters[k])
	}
	return nil
}

func ls(dir string) error {
	mods, err := abscache.ScanRoot(dir)
	if err != nil {
		return err
	}
	for _, mi := range mods {
		fmt.Printf("module %s: %d records in %d segments, %d bytes\n", mi.Key, mi.Records, mi.Segments, mi.Bytes)
		for _, e := range mi.Entries {
			fmt.Printf("  %-24s %s  instrs=%d edges=%d\n", "@"+e.Name, e.Key[:16], e.Instrs, e.Edges)
		}
	}
	return nil
}

func dump(dir, fn string) error {
	rec, modKey, err := abscache.FindRecord(dir, fn)
	if err != nil {
		return err
	}
	fmt.Printf("@%s (module %s, key %s)\n", rec.FuncName, modKey, rec.Key.Short())
	fmt.Printf("instrs=%d edges=%d\n", rec.NumInstrs, len(rec.Edges))
	for _, e := range rec.Edges {
		fmt.Printf("  %d>%d:%s\n", e.From, e.To, e.Flags)
	}
	return nil
}

func gc(dir string) error {
	res, err := abscache.GC(dir)
	if err != nil {
		return err
	}
	fmt.Printf("gc: kept %d records; dropped %d corrupt, %d orphaned; deleted %d superseded segments, %d temp files, %d legacy record files\n",
		res.Kept, res.Corrupt, res.Orphaned, res.Superseded, res.Temp, res.Legacy)
	return nil
}

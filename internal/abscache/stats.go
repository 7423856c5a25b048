package abscache

// RootStats is the snapshot of a whole store root — the on-disk totals
// ScanRoot derives plus the persisted session counters — in the JSON
// layout shared by `noelle-cache stats -json` and the noelle-serve stats
// endpoint. One codec, two surfaces: a dashboard scraping the daemon and
// a script parsing the CLI read the same fields.
type RootStats struct {
	Root     string           `json:"root"`
	Modules  int              `json:"modules"`
	Segments int              `json:"segments"`
	Records  int              `json:"records"`
	Indexed  int              `json:"indexed"`
	Bytes    int64            `json:"bytes"`
	Counters map[string]int64 `json:"counters"`
}

// CollectRootStats scans root and folds in the persisted counters. A
// missing or empty root collects as all-zero (with non-nil Counters), so
// pollers never need a special first-run path.
func CollectRootStats(root string) (*RootStats, error) {
	mods, err := ScanRoot(root)
	if err != nil {
		return nil, err
	}
	rs := &RootStats{Root: root, Modules: len(mods)}
	for _, mi := range mods {
		rs.Segments += mi.Segments
		rs.Records += mi.Records
		rs.Bytes += mi.Bytes
		rs.Indexed += len(mi.Entries)
	}
	rs.Counters, _ = ReadStatsFile(root) // absent file reads as zero counters
	return rs, nil
}

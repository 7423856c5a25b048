package abscache_test

import (
	"encoding/binary"
	"hash/crc32"
	"math"
	"runtime"
	"testing"

	"noelle/internal/abscache"
	"noelle/internal/bench"
)

// FuzzDecode feeds abscache.Decode arbitrary record bytes. With reseal set
// the harness first rewrites the trailing checksum over what precedes it,
// so mutations get past the CRC into the field parsers. Decode must never
// panic, and a record it accepts, built into a graph over one fixed
// function, must allocate in proportion to that function and the record's
// own bytes, never to a count the record claims: a checksum-valid record
// claiming 2^31 instructions used to size a slice by that claim before
// comparing it with the function, and run the process out of memory.
// Committed seeds (testdata/fuzz/FuzzDecode): an encoded record of
// bench.WholeProgram's @work0, which builds, and one input per error path
// of Decode and BuildGraph; the unsupported-version one is that record in
// the version-1 format.
func FuzzDecode(f *testing.F) {
	m, err := bench.WholeProgram()
	if err != nil {
		f.Fatal(err)
	}
	fn := m.FunctionByName("work0")
	f.Fuzz(func(t *testing.T, data []byte, reseal bool) {
		if reseal && len(data) >= 4 {
			body := data[:len(data)-4]
			data = binary.LittleEndian.AppendUint32(append([]byte(nil), body...), crc32.ChecksumIEEE(body))
		}
		rec, err := abscache.Decode(data)
		if err != nil {
			return
		}
		// The fewest bytes of three builds: other goroutines of the process
		// allocate too, and only ever add to the count.
		used := uint64(math.MaxUint64)
		for range 3 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			g, err := rec.BuildGraph(fn)
			runtime.ReadMemStats(&after)
			used = min(used, after.TotalAlloc-before.TotalAlloc)
			if err == nil && g.NumNodes() != fn.NumInstrs() {
				t.Fatalf("graph has %d nodes, function %d instructions", g.NumNodes(), fn.NumInstrs())
			}
		}
		if bound := uint64(64<<10 + 128*(fn.NumInstrs()+len(data))); used > bound {
			t.Fatalf("BuildGraph of a %d-byte record claiming %d instructions over %d allocated %d bytes (bound %d)",
				len(data), rec.NumInstrs, fn.NumInstrs(), used, bound)
		}
	})
}

// Package arch implements NOELLE's AR abstraction: a description of the
// underlying architecture — logical/physical cores, NUMA nodes, and
// measured core-to-core latencies and bandwidths (paper Section 2.2,
// "Architecture", and the noelle-arch tool). Since this repo's substrate
// is a simulator, "measurement" deterministically derives the latency
// matrix from the topology; the numbers are modeled on the paper's
// evaluation platform (a 12-core Xeon with 2-way SMT, one socket).
package arch

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Description models the machine NOELLE tools target.
type Description struct {
	PhysicalCores int
	SMTPerCore    int
	NUMANodes     int
	// Latency[i][j] is the core-to-core communication latency in cycles
	// between logical cores i and j.
	Latency [][]int64
	// Bandwidth[i][j] is in abstract bytes/cycle.
	Bandwidth [][]float64
}

// LogicalCores returns the number of logical cores.
func (d *Description) LogicalCores() int { return d.PhysicalCores * d.SMTPerCore }

// NUMANodeOf maps a logical core to its NUMA node.
func (d *Description) NUMANodeOf(core int) int {
	if d.NUMANodes <= 1 {
		return 0
	}
	perNode := (d.LogicalCores() + d.NUMANodes - 1) / d.NUMANodes
	return core / perNode
}

// PhysicalOf maps a logical core to its physical core (SMT siblings share).
func (d *Description) PhysicalOf(core int) int { return core % d.PhysicalCores }

// Measure plays the role of noelle-arch: it probes the topology and fills
// in the latency/bandwidth matrices. Pairs on the same physical core
// communicate through the L1 (cheap), same-NUMA pairs through the shared
// LLC, and cross-NUMA pairs through the interconnect.
func Measure(physCores, smt, numaNodes int) *Description {
	d := &Description{PhysicalCores: physCores, SMTPerCore: smt, NUMANodes: numaNodes}
	n := d.LogicalCores()
	d.Latency = make([][]int64, n)
	d.Bandwidth = make([][]float64, n)
	for i := 0; i < n; i++ {
		d.Latency[i] = make([]int64, n)
		d.Bandwidth[i] = make([]float64, n)
		for j := 0; j < n; j++ {
			switch {
			case i == j:
				d.Latency[i][j] = 0
				d.Bandwidth[i][j] = 64
			case d.PhysicalOf(i) == d.PhysicalOf(j):
				d.Latency[i][j] = 14 // SMT siblings: L1-shared
				d.Bandwidth[i][j] = 32
			case d.NUMANodeOf(i) == d.NUMANodeOf(j):
				d.Latency[i][j] = 60 // LLC hop, Haswell-class
				d.Bandwidth[i][j] = 16
			default:
				d.Latency[i][j] = 180 // QPI-class interconnect
				d.Bandwidth[i][j] = 8
			}
		}
	}
	return d
}

// Default returns the evaluation platform: 12 physical cores, 2-way SMT,
// one NUMA node (paper Section 4.1).
func Default() *Description { return Measure(12, 2, 1) }

// AvgLatency returns the mean pairwise latency among the first n logical
// cores — the single number the scheduling recurrences use.
func (d *Description) AvgLatency(n int) int64 {
	if n > d.LogicalCores() {
		n = d.LogicalCores()
	}
	if n < 2 {
		return 0
	}
	var sum, cnt int64
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j {
				sum += d.Latency[i][j]
				cnt++
			}
		}
	}
	return sum / cnt
}

// Serialize renders the description in the textual format noelle-arch
// writes.
func (d *Description) Serialize() string {
	var b strings.Builder
	fmt.Fprintf(&b, "cores %d\nsmt %d\nnuma %d\n", d.PhysicalCores, d.SMTPerCore, d.NUMANodes)
	n := d.LogicalCores()
	for i := 0; i < n; i++ {
		var row []string
		for j := 0; j < n; j++ {
			row = append(row, strconv.FormatInt(d.Latency[i][j], 10))
		}
		fmt.Fprintf(&b, "lat %s\n", strings.Join(row, " "))
	}
	return b.String()
}

// SortedPairLatencies returns the distinct latencies in increasing order
// (diagnostics for noelle-arch output).
func (d *Description) SortedPairLatencies() []int64 {
	seen := map[int64]bool{}
	var out []int64
	for i := range d.Latency {
		for j := range d.Latency[i] {
			if i != j && !seen[d.Latency[i][j]] {
				seen[d.Latency[i][j]] = true
				out = append(out, d.Latency[i][j])
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Package profiler implements NOELLE's PRO abstraction: IR-level
// profilers (instruction, branch, and loop profilers), metadata embedding
// of their results, and high-level hotness queries (paper Sections 2.2 and
// 2.3: noelle-prof-coverage and noelle-meta-prof-embed). Profiles are
// gathered by running the program under the IR interpreter on training
// inputs.
package profiler

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"noelle/internal/analysis"
	"noelle/internal/interp"
	"noelle/internal/ir"
)

// Profile holds the execution statistics of one training run.
type Profile struct {
	Mod *ir.Module
	// BlockCount is the number of times each block was entered.
	BlockCount map[*ir.Block]int64
	// EdgeCount is the number of times each CFG edge was taken.
	EdgeCount map[[2]*ir.Block]int64
	// CallCount is the number of invocations of each function.
	CallCount map[*ir.Function]int64
	// TotalCycles is the cost-model time of the whole run.
	TotalCycles int64
	// ExitCode and Output capture the run's observable behaviour.
	ExitCode int64
	Output   string
}

// Collect runs @main under the interpreter, recording block, edge, and
// call counts (the paper's noelle-prof-coverage step). The run is on the
// compiled tier with the edge and function-entry counters bound into its
// op streams (interp.CountEdges); a block is entered once per in-edge
// taken and, the entry block, once per call.
func Collect(m *ir.Module) (*Profile, error) {
	p := &Profile{
		Mod:        m,
		BlockCount: map[*ir.Block]int64{},
		EdgeCount:  map[[2]*ir.Block]int64{},
		CallCount:  map[*ir.Function]int64{},
	}
	it := interp.New(m)
	counts := it.CountEdges()
	code, err := it.Run()
	if err != nil {
		return nil, fmt.Errorf("profiler: training run failed: %w", err)
	}
	counts.Each(func(from, to *ir.Block, n int64) {
		p.BlockCount[to] += n
		if from != nil {
			p.EdgeCount[[2]*ir.Block{from, to}] += n
		}
	})
	for _, f := range m.Functions {
		if n := p.BlockCount[f.Entry()]; n != 0 {
			p.CallCount[f] = n
		}
	}
	p.TotalCycles = it.Cycles
	p.ExitCode = code
	p.Output = it.Output.String()
	return p, nil
}

// BlockCycles returns the cycles one execution of b is charged.
func BlockCycles(b *ir.Block) int64 {
	var total int64
	for _, in := range b.Instrs {
		total += interp.Cost(in)
	}
	return total
}

// FunctionCycles returns the profile-weighted cycles spent in f's body
// (excluding callees).
func (p *Profile) FunctionCycles(f *ir.Function) int64 {
	var total int64
	for _, b := range f.Blocks {
		total += p.BlockCount[b] * BlockCycles(b)
	}
	return total
}

// LoopStats describes one loop's dynamic behaviour.
type LoopStats struct {
	// Iterations is the total number of header entries minus invocations
	// (i.e. completed latch trips are Iterations; header entries include
	// the exit check).
	Iterations int64
	// Invocations is how many times the loop was entered from outside.
	Invocations int64
	// Cycles is the profile-weighted body time.
	Cycles int64
	// Hotness is Cycles / whole-program cycles, in [0,1].
	Hotness float64
}

// AvgIterations returns iterations per invocation.
func (s LoopStats) AvgIterations() float64 {
	if s.Invocations == 0 {
		return 0
	}
	return float64(s.Iterations) / float64(s.Invocations)
}

// LoopStatsFor computes the loop-level queries the paper lists (loop
// iteration count, average iterations per invocation, hotness).
func (p *Profile) LoopStatsFor(nat *analysis.NaturalLoop) LoopStats {
	st := LoopStats{}
	headerEntries := p.BlockCount[nat.Header]
	// Invocations: entries into the header along out-of-loop edges.
	for edge, n := range p.EdgeCount {
		if edge[1] == nat.Header && !nat.Contains(edge[0]) {
			st.Invocations += n
		}
	}
	backEdges := headerEntries - st.Invocations
	st.Iterations = backEdges + st.Invocations // header entries ≈ iterations (+1 exit check per invocation for while loops)
	for _, b := range nat.BlockList() {
		st.Cycles += p.BlockCount[b] * BlockCycles(b)
	}
	if p.TotalCycles > 0 {
		st.Hotness = float64(st.Cycles) / float64(p.TotalCycles)
	}
	return st
}

// BranchBias returns the taken probability of b's conditional branch
// towards its first target, and ok=false for non-conditional terminators
// or never-executed branches.
func (p *Profile) BranchBias(b *ir.Block) (float64, bool) {
	t := b.Terminator()
	if t == nil || t.Opcode != ir.OpCondBr {
		return 0, false
	}
	taken := p.EdgeCount[[2]*ir.Block{b, t.Blocks[0]}]
	not := p.EdgeCount[[2]*ir.Block{b, t.Blocks[1]}]
	if taken+not == 0 {
		return 0, false
	}
	return float64(taken) / float64(taken+not), true
}

// ---- metadata embedding (noelle-meta-prof-embed) ----

const (
	mdBlocks = "noelle.prof.blocks"
	mdEdges  = "noelle.prof.edges"
	mdCalls  = "noelle.prof.calls"
	mdTotal  = "noelle.prof.total"
)

// Embed serializes the profile into module metadata keyed by function and
// block names (stable across print/parse round trips).
func (p *Profile) Embed() {
	var bs, es, cs []string
	for b, n := range p.BlockCount {
		bs = append(bs, fmt.Sprintf("%s/%s=%d", b.Parent.Nam, b.Nam, n))
	}
	for e, n := range p.EdgeCount {
		es = append(es, fmt.Sprintf("%s/%s>%s=%d", e[0].Parent.Nam, e[0].Nam, e[1].Nam, n))
	}
	for f, n := range p.CallCount {
		cs = append(cs, fmt.Sprintf("%s=%d", f.Nam, n))
	}
	sort.Strings(bs)
	sort.Strings(es)
	sort.Strings(cs)
	p.Mod.SetMD(mdBlocks, strings.Join(bs, ";"))
	p.Mod.SetMD(mdEdges, strings.Join(es, ";"))
	p.Mod.SetMD(mdCalls, strings.Join(cs, ";"))
	p.Mod.SetMD(mdTotal, strconv.FormatInt(p.TotalCycles, 10))
}

// HasEmbedded reports whether m carries an embedded profile.
func HasEmbedded(m *ir.Module) bool { return m.MD.Has(mdBlocks) }

// Reload reconstructs a Profile from embedded metadata.
func Reload(m *ir.Module) (*Profile, error) {
	if !HasEmbedded(m) {
		return nil, fmt.Errorf("profiler: no embedded profile")
	}
	p := &Profile{
		Mod:        m,
		BlockCount: map[*ir.Block]int64{},
		EdgeCount:  map[[2]*ir.Block]int64{},
		CallCount:  map[*ir.Function]int64{},
	}
	blockBy := func(spec string) (*ir.Block, error) {
		slash := strings.IndexByte(spec, '/')
		if slash < 0 {
			return nil, fmt.Errorf("profiler: bad block spec %q", spec)
		}
		f := m.FunctionByName(spec[:slash])
		if f == nil {
			return nil, fmt.Errorf("profiler: unknown function %q", spec[:slash])
		}
		b := f.BlockByName(spec[slash+1:])
		if b == nil {
			return nil, fmt.Errorf("profiler: unknown block %q", spec)
		}
		return b, nil
	}
	for _, item := range splitList(m.MD.Get(mdBlocks)) {
		k, v, err := splitCount(item)
		if err != nil {
			return nil, err
		}
		b, err := blockBy(k)
		if err != nil {
			return nil, err
		}
		p.BlockCount[b] = v
	}
	for _, item := range splitList(m.MD.Get(mdEdges)) {
		k, v, err := splitCount(item)
		if err != nil {
			return nil, err
		}
		arrow := strings.IndexByte(k, '>')
		if arrow < 0 {
			return nil, fmt.Errorf("profiler: bad edge spec %q", k)
		}
		from, err := blockBy(k[:arrow])
		if err != nil {
			return nil, err
		}
		to := from.Parent.BlockByName(k[arrow+1:])
		if to == nil {
			return nil, fmt.Errorf("profiler: unknown edge target %q", k)
		}
		p.EdgeCount[[2]*ir.Block{from, to}] = v
	}
	for _, item := range splitList(m.MD.Get(mdCalls)) {
		k, v, err := splitCount(item)
		if err != nil {
			return nil, err
		}
		f := m.FunctionByName(k)
		if f == nil {
			return nil, fmt.Errorf("profiler: unknown function %q", k)
		}
		p.CallCount[f] = v
	}
	total, err := strconv.ParseInt(m.MD.Get(mdTotal), 10, 64)
	if err != nil {
		return nil, fmt.Errorf("profiler: bad total: %w", err)
	}
	p.TotalCycles = total
	return p, nil
}

func splitList(s string) []string {
	if s == "" {
		return nil
	}
	return strings.Split(s, ";")
}

func splitCount(item string) (string, int64, error) {
	eq := strings.LastIndexByte(item, '=')
	if eq < 0 {
		return "", 0, fmt.Errorf("profiler: bad entry %q", item)
	}
	v, err := strconv.ParseInt(item[eq+1:], 10, 64)
	if err != nil {
		return "", 0, fmt.Errorf("profiler: bad count in %q", item)
	}
	return item[:eq], v, nil
}

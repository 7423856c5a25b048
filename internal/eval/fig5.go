package eval

import (
	"fmt"
	"strings"

	"noelle/internal/bench"
	"noelle/internal/callgraph"
	"noelle/internal/core"
	"noelle/internal/ir"
	"noelle/internal/loops"
	"noelle/internal/machine"
	"noelle/internal/profiler"
	"noelle/internal/tools/baseline"
	"noelle/internal/tools/doall"
	"noelle/internal/tools/dswp"
	"noelle/internal/tools/helix"
)

// Fig5Row is one benchmark's speedup series at a given core count.
type Fig5Row struct {
	Benchmark string
	Suite     bench.Suite
	DOALL     float64
	HELIX     float64
	DSWP      float64
	// GccPar / IccPar model the conservative industrial auto-parallelizer
	// (both resolve to the same legality analysis here, as both extracted
	// nothing in the paper).
	GccPar float64
	IccPar float64
}

// Figure5Speedups reproduces Figure 5 (PARSEC + MiBench) and the Section
// 4.4 SPEC numbers: whole-program speedups of the three NOELLE
// parallelizers and the conservative baseline on the simulated machine.
func Figure5Speedups(suites []bench.Suite, cores int) ([]Fig5Row, error) {
	var rows []Fig5Row
	for _, suite := range suites {
		for _, b := range bench.BySuite(suite) {
			row, err := speedupsFor(b, cores)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", b.Name, err)
			}
			rows = append(rows, *row)
		}
	}
	return rows, nil
}

func speedupsFor(b bench.Benchmark, cores int) (*Fig5Row, error) {
	row := &Fig5Row{Benchmark: b.Name, Suite: b.Suite, GccPar: 1, IccPar: 1}

	m, err := b.Compile()
	if err != nil {
		return nil, err
	}
	prof, err := profiler.Collect(m)
	if err != nil {
		return nil, err
	}
	prof.Embed()
	totalSeq := prof.TotalCycles

	opts := core.DefaultOptions()
	opts.Cores = cores
	opts.MinHotness = 0.01
	n := core.New(m, opts)
	cfg := machine.DefaultConfig(n.Arch(), cores)

	// ---- DOALL ----
	{
		seqs, pars := planTechnique(n, func(ls *loops.LS) (map[*ir.Instr]int, int, bool) {
			l := n.Loop(ls)
			if doall.Eligible(l) != nil {
				return nil, 0, false
			}
			return map[*ir.Instr]int{}, 1, true
		}, func(inv *machine.Invocation) int64 {
			return machine.SimulateDOALL(inv, cfg, 8)
		})
		row.DOALL = machine.Speedup(totalSeq, seqs, pars)
	}
	// ---- HELIX ----
	{
		seqs, pars := planTechnique(n, func(ls *loops.LS) (map[*ir.Instr]int, int, bool) {
			p, _ := helix.PlanLoop(n, ls)
			if p == nil {
				return nil, 0, false
			}
			// HELIX only helps when a meaningful parallel portion exists.
			return p.SegmentOf, p.NumSegments(), true
		}, func(inv *machine.Invocation) int64 {
			return machine.SimulateHELIX(inv, cfg)
		})
		row.HELIX = machine.Speedup(totalSeq, seqs, pars)
	}
	// ---- DSWP ----
	{
		seqs, pars := planTechnique(n, func(ls *loops.LS) (map[*ir.Instr]int, int, bool) {
			p, _ := dswp.PlanLoop(n, ls)
			if p == nil {
				return nil, 0, false
			}
			return p.SegmentOf, p.NumStages, true
		}, func(inv *machine.Invocation) int64 {
			return machine.SimulateDSWP(inv, cfg)
		})
		row.DSWP = machine.Speedup(totalSeq, seqs, pars)
	}
	// ---- conservative industrial baseline ----
	{
		res := baseline.ConservativeAutoPar(m)
		if len(res.Parallelized) > 0 {
			headers := map[*ir.Block]bool{}
			for _, h := range res.Parallelized {
				headers[h] = true
			}
			seqs, pars := planTechnique(n, func(ls *loops.LS) (map[*ir.Instr]int, int, bool) {
				if !headers[ls.Header] {
					return nil, 0, false
				}
				return map[*ir.Instr]int{}, 1, true
			}, func(inv *machine.Invocation) int64 {
				return machine.SimulateDOALL(inv, cfg, 8)
			})
			row.GccPar = machine.Speedup(totalSeq, seqs, pars)
			row.IccPar = row.GccPar
		}
	}
	// The parallelizers never slow a loop down in practice: the runtime
	// system falls back to the sequential loop when the parallel version
	// is slower (standard guard in the paper's tools).
	row.DOALL = clampMin(row.DOALL, 1)
	row.HELIX = clampMin(row.HELIX, 1)
	row.DSWP = clampMin(row.DSWP, 1)
	return row, nil
}

// candidatePlan is one profitable loop plan before composition.
type candidatePlan struct {
	ls       *loops.LS
	seq, par int64
	// callees is the set of functions transitively callable from the
	// loop body (their cycles are attributed to this loop).
	callees map[*ir.Function]bool
}

// planTechnique walks each function's loop forest: the technique gets the
// top-level loop when it can plan it profitably; otherwise the selection
// descends to its children. Adopted loops must not overlap — neither by
// nesting (the descent guarantees that) nor through calls (a loop whose
// body calls into a function is charged that function's cycles, so loops
// inside callees of an adopted loop are skipped).
func planTechnique(n *core.Noelle, plan func(*loops.LS) (map[*ir.Instr]int, int, bool), sim func(*machine.Invocation) int64) (seqs, pars []int64) {
	cg := n.CallGraph()
	var cands []candidatePlan
	for _, f := range n.Mod.Functions {
		if f.IsDeclaration() {
			continue
		}
		var visit func(node *loops.ForestNode)
		visit = func(node *loops.ForestNode) {
			ls := node.LS
			if seg, numSegs, ok := plan(ls); ok {
				invs, err := machine.AttributeLoopCosts(n.Mod, ls.Nat, seg, numSegs)
				if err == nil && len(invs) > 0 {
					seq := machine.SequentialCycles(invs)
					par := machine.SimulateAll(invs, sim)
					if par < seq { // only consider profitable plans
						cands = append(cands, candidatePlan{ls: ls, seq: seq, par: par, callees: loopCallees(cg, ls)})
						return
					}
				}
			}
			for _, c := range node.Children {
				visit(c)
			}
		}
		for _, root := range n.Forest(f).Roots {
			visit(root)
		}
	}

	// Greedy composition by descending sequential weight, rejecting
	// call-overlapping candidates.
	for i := 0; i < len(cands); i++ {
		for j := i + 1; j < len(cands); j++ {
			if cands[j].seq > cands[i].seq {
				cands[i], cands[j] = cands[j], cands[i]
			}
		}
	}
	var adopted []candidatePlan
	for _, c := range cands {
		conflict := false
		for _, a := range adopted {
			if a.callees[c.ls.Fn] || c.callees[a.ls.Fn] {
				conflict = true
				break
			}
		}
		if conflict {
			continue
		}
		adopted = append(adopted, c)
		seqs = append(seqs, c.seq)
		pars = append(pars, c.par)
	}
	return seqs, pars
}

// loopCallees returns the functions transitively callable from the loop's
// body.
func loopCallees(cg *callgraph.CallGraph, ls *loops.LS) map[*ir.Function]bool {
	var roots []*ir.Function
	ls.Instrs(func(in *ir.Instr) bool {
		if in.Opcode == ir.OpCall {
			roots = append(roots, cg.PT.Callees(in)...)
		}
		return true
	})
	return cg.Reachable(roots...)
}

func clampMin(v, lo float64) float64 {
	if v < lo {
		return lo
	}
	return v
}

// FormatFigure5 renders the speedup series.
func FormatFigure5(title string, rows []Fig5Row, cores int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s (simulated, %d cores; baseline clang -O2 equivalent)\n", title, cores)
	fmt.Fprintf(&b, "  %-14s %-12s %7s %7s %7s %7s %7s\n", "benchmark", "suite", "DOALL", "HELIX", "DSWP", "gcc", "icc")
	var gD, gH, gS float64
	for _, r := range rows {
		fmt.Fprintf(&b, "  %-14s %-12s %6.2fx %6.2fx %6.2fx %6.2fx %6.2fx\n",
			r.Benchmark, r.Suite, r.DOALL, r.HELIX, r.DSWP, r.GccPar, r.IccPar)
		gD += r.DOALL
		gH += r.HELIX
		gS += r.DSWP
	}
	nf := float64(len(rows))
	fmt.Fprintf(&b, "  %-14s %-12s %6.2fx %6.2fx %6.2fx\n", "MEAN", "", gD/nf, gH/nf, gS/nf)
	return b.String()
}

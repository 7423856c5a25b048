package eval

import (
	"fmt"
	"strings"

	"noelle/internal/alias"
	"noelle/internal/analysis"
	"noelle/internal/bench"
	"noelle/internal/core"
	"noelle/internal/ir"
	"noelle/internal/loops"
	"noelle/internal/pdg"
	"noelle/internal/tools/baseline"
)

// Fig3Row is one benchmark's dependence-precision result: the fraction of
// potential memory dependences each analysis stack disproves.
type Fig3Row struct {
	Benchmark string
	Suite     bench.Suite
	LLVMPct   float64 // type/basic AA only
	NoellePct float64 // + Andersen points-to, SCAF-style combination
}

// Figure3Dependences reproduces Figure 3 over the 41-benchmark corpus.
func Figure3Dependences() ([]Fig3Row, error) {
	var rows []Fig3Row
	for _, b := range bench.List() {
		m, err := b.Compile()
		if err != nil {
			return nil, err
		}
		base := pdg.NewBaselineBuilder(m)
		full := pdg.NewBuilder(m)
		var tB, dB, tN, dN int
		for _, f := range m.Functions {
			if f.IsDeclaration() {
				continue
			}
			t1, d1 := base.PotentialMemoryPairs(f)
			tB += t1
			dB += d1
			t2, d2 := full.PotentialMemoryPairs(f)
			tN += t2
			dN += d2
		}
		row := Fig3Row{Benchmark: b.Name, Suite: b.Suite}
		if tB > 0 {
			row.LLVMPct = 100 * float64(dB) / float64(tB)
		}
		if tN > 0 {
			row.NoellePct = 100 * float64(dN) / float64(tN)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// Fig4Row is one benchmark's invariant-detection result: invariant
// instructions found, as a percentage of loop instructions.
type Fig4Row struct {
	Benchmark string
	Suite     bench.Suite
	LLVMPct   float64
	NoellePct float64
	LLVMAbs   int
	NoelleAbs int
}

// Figure4Invariants reproduces Figure 4: Algorithm 1 (low-level) vs
// Algorithm 2 (PDG-powered) invariant detection.
func Figure4Invariants() ([]Fig4Row, error) {
	var rows []Fig4Row
	for _, b := range bench.List() {
		m, err := b.Compile()
		if err != nil {
			return nil, err
		}
		row := Fig4Row{Benchmark: b.Name, Suite: b.Suite}
		loopInstrs := 0

		n := core.New(m, core.DefaultOptions())
		for _, f := range m.Functions {
			if f.IsDeclaration() {
				continue
			}
			fpdg := n.FunctionPDG(f)
			pt := n.PointsTo()
			for _, node := range n.Forest(f).Nodes() {
				ls := node.LS
				loopInstrs += ls.NumInstrs()
				inv := loops.NewInvariants(ls, fpdg, func(call *ir.Instr) bool { return !pt.CallIsPure(call) })
				row.NoelleAbs += inv.Count()
				llvm := baseline.InvariantsLLVM(f, ls.Nat, analysis.NewDomTree(f), alias.TypeBasicAA{})
				row.LLVMAbs += len(llvm)
			}
		}
		if loopInstrs > 0 {
			row.LLVMPct = 100 * float64(row.LLVMAbs) / float64(loopInstrs)
			row.NoellePct = 100 * float64(row.NoelleAbs) / float64(loopInstrs)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// GovIVResult reproduces Section 4.3's governing-IV comparison.
type GovIVResult struct {
	LLVMTotal   int
	NoelleTotal int
	Loops       int
}

// GoverningIVs counts governing induction variables found module-wide by
// the low-level do-while pattern vs NOELLE's SCC-based detection.
func GoverningIVs() (GovIVResult, error) {
	var res GovIVResult
	for _, b := range bench.List() {
		m, err := b.Compile()
		if err != nil {
			return res, err
		}
		res.LLVMTotal += baseline.CountGoverningIVsLLVM(m)
		n := core.New(m, core.DefaultOptions())
		for _, f := range m.Functions {
			if f.IsDeclaration() {
				continue
			}
			for _, node := range n.Forest(f).Nodes() {
				res.Loops++
				l := n.Loop(node.LS)
				if l.IVs.GoverningIV() != nil {
					res.NoelleTotal++
				}
			}
		}
	}
	return res, nil
}

// FormatFigure3 renders the Figure 3 series.
func FormatFigure3(rows []Fig3Row) string {
	var b strings.Builder
	b.WriteString("Figure 3: % of potential memory dependences disproved (higher is better)\n")
	fmt.Fprintf(&b, "  %-14s %-12s %8s %8s\n", "benchmark", "suite", "LLVM", "NOELLE")
	for _, r := range rows {
		fmt.Fprintf(&b, "  %-14s %-12s %7.1f%% %7.1f%%\n", r.Benchmark, r.Suite, r.LLVMPct, r.NoellePct)
	}
	var avgL, avgN float64
	for _, r := range rows {
		avgL += r.LLVMPct
		avgN += r.NoellePct
	}
	fmt.Fprintf(&b, "  %-14s %-12s %7.1f%% %7.1f%%\n", "MEAN", "", avgL/float64(len(rows)), avgN/float64(len(rows)))
	return b.String()
}

// FormatFigure4 renders the Figure 4 series.
func FormatFigure4(rows []Fig4Row) string {
	var b strings.Builder
	b.WriteString("Figure 4: loop invariants identified, % of loop instructions\n")
	fmt.Fprintf(&b, "  %-14s %-12s %8s %8s %8s %8s\n", "benchmark", "suite", "LLVM%", "NOELLE%", "LLVM#", "NOELLE#")
	totL, totN := 0, 0
	for _, r := range rows {
		fmt.Fprintf(&b, "  %-14s %-12s %7.1f%% %7.1f%% %8d %8d\n",
			r.Benchmark, r.Suite, r.LLVMPct, r.NoellePct, r.LLVMAbs, r.NoelleAbs)
		totL += r.LLVMAbs
		totN += r.NoelleAbs
	}
	fmt.Fprintf(&b, "  TOTAL invariants: LLVM %d, NOELLE %d\n", totL, totN)
	return b.String()
}

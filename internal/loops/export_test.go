package loops

import "noelle/internal/ir"

// RegisterSCCs is the register-SCC pass NewLoop runs once per bundle.
func RegisterSCCs(ls *LS) [][]*ir.Instr { return registerSCCs(newBody(ls)) }

// IVsFrom and ReductionsFrom classify register SCCs the caller supplies:
// the seam reference_test.go feeds its map-keyed register graph through.
func IVsFrom(ls *LS, sccs [][]*ir.Instr, inv *Invariants) *IVAnalysis {
	return newIVAnalysis(ls, newBody(ls), sccs, inv)
}

func ReductionsFrom(ls *LS, sccs [][]*ir.Instr, ivs *IVAnalysis) *ReductionAnalysis {
	return newReductionAnalysis(ls, newBody(ls), sccs, ivs)
}

// RefineCarried is the loop-carried refinement of one in-loop edge; it
// marks an edge the affine analysis disproves with class Dropped.
var RefineCarried = refineCarried

const Dropped = dropped

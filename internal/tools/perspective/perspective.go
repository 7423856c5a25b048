// Package perspective is the NOELLE port of the Perspective speculative
// parallelization planner (paper Sections 3 and 4.4: the original 34k-LoC
// codebase was rewritten against the PDG and aSCCDAG abstractions, which
// per Table 4 are the only two abstractions it needs). For every hot loop
// that DOALL rejects, it chooses, per problematic SCC, the cheapest
// enabling strategy — privatization of the conflicting object or
// speculation on the apparent dependence — minimizing the combined
// runtime overhead, and reports the loop parallelizable when every
// sequential SCC is covered.
package perspective

import (
	"noelle/internal/core"
	"noelle/internal/loops"
	"noelle/internal/pdg"
	"noelle/internal/sccdag"
)

// Strategy is the enabling transformation chosen for one SCC.
type Strategy int

// Strategies.
const (
	// None: the SCC is already parallel (independent, IV, reduction).
	None Strategy = iota
	// Privatize: give each worker a private copy of the conflicting
	// object; legal when the object is written before read in each
	// iteration or dead after the loop.
	Privatize
	// Speculate: assume the apparent dependence never manifests and
	// validate at runtime (misspeculation cost modeled separately).
	Speculate
	// Sequentialize: no strategy applies; the SCC blocks parallelization.
	Sequentialize
)

// String renders the strategy.
func (s Strategy) String() string {
	switch s {
	case None:
		return "none"
	case Privatize:
		return "privatize"
	case Speculate:
		return "speculate"
	default:
		return "sequential"
	}
}

// SCCPlan is the decision for one SCC.
type SCCPlan struct {
	Node     *sccdag.Node
	Strategy Strategy
	// OverheadPerIter is the modeled validation/privatization cost added
	// to every iteration.
	OverheadPerIter int64
}

// LoopPlan is the decision for one loop.
type LoopPlan struct {
	LS   *loops.LS
	Loop *loops.Loop
	SCCs []*SCCPlan
	// Parallelizable is true when no SCC had to stay sequential.
	Parallelizable bool
	// OverheadPerIter sums the per-iteration strategy costs.
	OverheadPerIter int64
}

// Result lists the plans.
type Result struct {
	Plans []*LoopPlan
}

// Modeled per-iteration costs (cost-model cycles).
const (
	specValidationCost = 6 // one runtime check per speculated access
	privatizeCost      = 2 // redirect accesses to the private copy
)

// Run plans minimal-cost speculative parallelization for every hot loop.
func Run(n *core.Noelle) Result {
	var res Result
	for _, ls := range n.HotLoops() {
		res.Plans = append(res.Plans, PlanLoop(n, ls))
	}
	return res
}

// PlanLoop plans one specific loop: per problematic SCC, the cheapest
// enabling strategy. The module is not mutated.
func PlanLoop(n *core.Noelle, ls *loops.LS) *LoopPlan {
	l := n.Loop(ls) // requests PDG + aSCCDAG (and the rest of L)
	plan := &LoopPlan{LS: ls, Loop: l, Parallelizable: true}
	for _, node := range l.SCCDAG.Nodes {
		sp := planSCC(l, node)
		plan.SCCs = append(plan.SCCs, sp)
		plan.OverheadPerIter += sp.OverheadPerIter
		if sp.Strategy == Sequentialize {
			plan.Parallelizable = false
		}
	}
	return plan
}

func planSCC(l *loops.Loop, node *sccdag.Node) *SCCPlan {
	sp := &SCCPlan{Node: node}
	if node.Kind != sccdag.Sequential || node.IsIV {
		sp.Strategy = None
		return sp
	}
	// Register-carried recurrences (non-reducible) have no cheap remedy:
	// value speculation is out of scope, as in the original planner's
	// "minimum speculation" philosophy.
	hasRegCarried := false
	for _, e := range node.Carried {
		if !e.Memory && !e.Control {
			hasRegCarried = true
		}
	}
	if hasRegCarried {
		sp.Strategy = Sequentialize
		return sp
	}

	// Memory-carried: privatize when every carried conflict is
	// write-before-read within an iteration (the object's cross-iteration
	// content is never consumed), otherwise speculate when the carried
	// dependences are only apparent (may, not must).
	if privatizable(node) {
		sp.Strategy = Privatize
		sp.OverheadPerIter = privatizeCost
		return sp
	}
	if speculable(node) {
		sp.Strategy = Speculate
		sp.OverheadPerIter = int64(len(node.Carried)) * specValidationCost
		return sp
	}
	sp.Strategy = Sequentialize
	return sp
}

// privatizable: every carried memory dependence is WAW or WAR — the next
// iteration overwrites before (or without) reading, so a private copy per
// worker preserves semantics (with a last-writer merge).
func privatizable(node *sccdag.Node) bool {
	for _, e := range node.Carried {
		if !e.Memory {
			return false
		}
		if e.Class == pdg.RAW {
			return false
		}
	}
	return len(node.Carried) > 0
}

// speculable: all carried dependences are apparent (may-alias, never
// proven): Perspective speculates they do not manifest and validates.
func speculable(node *sccdag.Node) bool {
	for _, e := range node.Carried {
		if e.Must {
			return false
		}
	}
	return len(node.Carried) > 0
}

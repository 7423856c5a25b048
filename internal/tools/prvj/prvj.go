// Package prvj is the NOELLE-based PRVJeeves custom tool (paper Section
// 3): it selects pseudo-random value generators (PRVGs) for a randomized
// program. PRVG implementations are discovered by convention (functions
// named prvg_<name>_next, tagged with quality/cost metadata), their
// allocations and uses are located through the PDG and call graph, cold
// uses are pruned with the profiler, and hot call sites of expensive
// generators are rewired to the cheapest generator whose quality level
// satisfies the program's requirement.
package prvj

import (
	"sort"
	"strconv"
	"strings"

	"noelle/internal/analysis"
	"noelle/internal/core"
	"noelle/internal/interp"
	"noelle/internal/ir"
	"noelle/internal/loops"
)

// Generator describes one PRVG implementation found in the module.
type Generator struct {
	Fn *ir.Function
	// Quality is an ordinal: higher = statistically stronger.
	Quality int
	// Cost is the static cost-model estimate of one invocation.
	Cost int64
}

// Result summarizes the selection.
type Result struct {
	Generators []*Generator
	// Swapped counts call sites rewired to a cheaper generator.
	Swapped int
	// Kept counts PRVG call sites left untouched (cold, or already
	// optimal).
	Kept int
}

// QualityRequired is the module metadata key declaring the minimum PRVG
// quality the program needs (default 1 = statistical use only).
const QualityRequired = "noelle.prvg.required"

// MDQuality is the function metadata key tagging a PRVG's quality level.
const MDQuality = "noelle.prvg.quality"

// Run performs PRVG selection on the module.
func Run(n *core.Noelle) Result {
	n.Use(core.AbsPDG)
	n.Use(core.AbsLB)
	n.Use(core.AbsIVS)
	n.Use(core.AbsINV)
	n.Use(core.AbsIV)
	var res Result

	// Discover generators.
	for _, f := range n.Mod.Functions {
		if f.IsDeclaration() || !strings.HasPrefix(f.Nam, "prvg_") || !strings.HasSuffix(f.Nam, "_next") {
			continue
		}
		q := qualityByName(f.Nam)
		if v := f.MD.Get(MDQuality); v != "" {
			if parsed, err := strconv.Atoi(v); err == nil {
				q = parsed
			}
		}
		res.Generators = append(res.Generators, &Generator{Fn: f, Quality: q, Cost: staticCost(f)})
	}
	if len(res.Generators) < 2 {
		return res // nothing to select between
	}
	sort.Slice(res.Generators, func(i, j int) bool { return res.Generators[i].Cost < res.Generators[j].Cost })

	required := 1
	if v := n.Mod.MD.Get(QualityRequired); v != "" {
		if parsed, err := strconv.Atoi(v); err == nil {
			required = parsed
		}
	}
	// Cheapest generator meeting the requirement.
	var best *Generator
	for _, g := range res.Generators {
		if g.Quality >= required {
			best = g
			break
		}
	}
	if best == nil {
		return res
	}

	prof := n.Profile()
	cg := n.CallGraph()
	_ = cg // discovery of transitive PRVG uses flows through the CG

	for _, f := range n.Mod.Functions {
		if f.IsDeclaration() || isGenerator(res.Generators, f) {
			continue
		}
		li := analysis.NewLoopInfo(f)
		changed := false
		f.Instrs(func(in *ir.Instr) bool {
			callee := in.CalledFunction()
			if callee == nil || !isGeneratorFn(res.Generators, callee) {
				return true
			}
			if callee == best.Fn {
				res.Kept++
				return true
			}
			if !compatible(callee, best.Fn) {
				res.Kept++
				return true
			}
			// PRO pruning: only swap hot uses (inside loops, or hot per
			// the profile).
			hot := li.LoopOf(in.Parent) != nil
			if prof != nil {
				if nat := li.LoopOf(in.Parent); nat != nil {
					hot = prof.LoopStatsFor(nat).Hotness >= n.Opts.MinHotness
				} else {
					hot = false
				}
			}
			if !hot {
				res.Kept++
				return true
			}
			in.Ops[0] = best.Fn
			res.Swapped++
			changed = true
			return true
		})
		if changed {
			n.InvalidateFunction(f)
		}
	}
	if res.Swapped > 0 {
		n.InvalidateModule()
	}
	return res
}

func isGenerator(gens []*Generator, f *ir.Function) bool { return isGeneratorFn(gens, f) }

func isGeneratorFn(gens []*Generator, f *ir.Function) bool {
	for _, g := range gens {
		if g.Fn == f {
			return true
		}
	}
	return false
}

func compatible(a, b *ir.Function) bool { return a.Sig.Equal(b.Sig) }

// qualityByName provides default quality levels for the well-known PRVG
// families when no metadata tag overrides them.
func qualityByName(name string) int {
	switch {
	case strings.Contains(name, "_mt_"):
		return 3 // Mersenne-Twister class
	case strings.Contains(name, "_xorshift_"), strings.Contains(name, "_taus_"):
		return 2
	default:
		return 1 // LCG class
	}
}

// staticCost estimates one invocation of f, weighting loop bodies by
// their trip count (or a nominal 16 when unknown) so an iterative
// generator is costed per call, not per source line.
func staticCost(f *ir.Function) int64 {
	li := analysis.NewLoopInfo(f)
	weightOf := func(b *ir.Block) int64 {
		w := int64(1)
		for nat := li.LoopOf(b); nat != nil; nat = nat.Parent {
			trips := int64(16)
			ls := loops.NewLS(f, nat)
			ivs := loops.NewIVAnalysis(ls, nil)
			if tc, ok := ivs.TripCount(); ok && tc > 0 {
				trips = tc
			}
			w *= trips
		}
		return w
	}
	var total int64
	for _, b := range f.Blocks {
		var blockCost int64
		for _, in := range b.Instrs {
			blockCost += interp.Cost(in)
		}
		total += blockCost * weightOf(b)
	}
	return total
}

// Package auto is the one loop-parallelization driver (paper Sections
// 4–5): the only place that walks the hot loops, plans them, lowers the
// plans and records why. A run is either competing or pinned.
//
// Competing (the auto tool, Run; RunWith for a caller's own planner set,
// which is how the evaluation prints Figure 5): before deciding anything,
// every technique planner (doall, dswp, helix) plans every loop under a
// hot root (profiler hotness over the -hot threshold) of the untransformed
// module, and one training run prices all of those plans at once (the
// machine package runs the training input on the interpreter's compiled
// tier with every loop's cost probes bound in, and splits each loop's
// per-iteration cycles along each plan's segmentation simultaneously).
// Then, loop by loop, each planner answers again on the current module;
// a loop whose plans still segment it as they did up front is scored from
// that run, and any other is priced alone on the current module (a price
// miss, counted and named on its why-line). The predicted-fastest
// profitable technique is selected and — under -exec-plans — exactly the
// winning plan is lowered.
//
// A plan is a promise: a planner refuses a loop its code generator does
// not cover, so the loop a run selects is the loop it lowers, plan-only
// or not, and there is no search for a second choice. A Lower or
// comm-tier verification failure after a successful plan is the driver's
// error, naming the loop and the technique.
//
// Pinned (the doall, dswp and helix tools, RunPinned): the user named the
// technique, so the same walk skips the scoring step — no training run,
// no Par < Seq gate — and lowers every plan. That is deliberately
// ungated: a pinned run is how one
// technique's lowering is measured on its own (the benchmark's
// dswp_pipe/helix_pipe workloads), and the do-no-harm gate of ROADMAP
// item 1c belongs in selectLoop, the one place a loop's fate is decided,
// rather than in each tool.
//
// Either way, when nothing fits a loop the walk descends into its
// children, so an outer sequential driver still gets its inner loops
// parallelized, and every decision is reported through the one Report
// function: per-loop candidates, why the winner won, and per-technique
// rejection reasons.
package auto

import (
	"context"
	"fmt"
	"maps"
	"slices"
	"strings"

	"noelle/internal/core"
	"noelle/internal/ir"
	"noelle/internal/loops"
	"noelle/internal/machine"
	"noelle/internal/tool"
	"noelle/internal/verify"
)

// Candidate is one technique's scored answer for one loop.
type Candidate struct {
	Technique string
	// Rejection is the planner's reason when no plan was produced.
	Rejection string
	// Seq/Par are modeled cycles (valid when Rejection is empty): the
	// loop's measured sequential time and the plan's estimated parallel
	// time including lowering overheads. Both stay 0 in a pinned run,
	// which never prices a plan.
	Seq, Par int64
	// Shape is the plan's one-line self-description.
	Shape string
	// Plan is the technique's plan (nil when rejected).
	Plan tool.Plan
}

// rejected renders a rejected candidate for the why-lines.
func (c Candidate) rejected() string { return c.Technique + " rejected: " + c.Rejection }

// Speedup is the modeled seq/par ratio (0 when rejected or unmeasured).
func (c Candidate) Speedup() float64 {
	if c.Rejection != "" || c.Par <= 0 {
		return 0
	}
	return float64(c.Seq) / float64(c.Par)
}

// Selection is the decision for one loop.
type Selection struct {
	Fn, Header string
	// Candidates holds every technique's answer, in registry order.
	Candidates []Candidate
	// Winner is the selected technique ("" when the loop stays
	// sequential).
	Winner string
	// TaskName is the generated task function prefix when lowered.
	TaskName string
	// Lowered reports whether the winning plan was actually lowered
	// (false in plan-only mode, where Winner is the prediction).
	Lowered bool
	// Why is the one-line account of the decision.
	Why string
}

// Won is the winning technique's candidate (nil when the loop stays
// sequential).
func (s *Selection) Won() *Candidate {
	for i := range s.Candidates {
		if s.Candidates[i].Technique == s.Winner { // never "": planners are named
			return &s.Candidates[i]
		}
	}
	return nil
}

// Result is the driver's outcome for one module.
type Result struct {
	// Pinned is the technique a pinned run was held to ("" for a
	// competing run over every registered planner).
	Pinned     string
	Selections []Selection
	// Rejections records the loops (including descended children) where
	// no technique was selected, with the decisive reason.
	Rejections []tool.LoopRejection
	// TrainingRuns counts the attribution runs a competing run made: one
	// up front when any loop had a plan, plus one per price miss.
	// PriceMisses counts the loops priced alone because their plans no
	// longer segmented them as the up-front plans did. Both stay 0 in a
	// pinned run.
	TrainingRuns, PriceMisses int
}

// Selected counts selections with a winner.
func (r *Result) Selected() int {
	n := 0
	for _, s := range r.Selections {
		if s.Winner != "" {
			n++
		}
	}
	return n
}

// Lowered counts selections whose winning plan was lowered.
func (r *Result) Lowered() int {
	n := 0
	for _, s := range r.Selections {
		if s.Lowered {
			n++
		}
	}
	return n
}

// ModeledSpeedup is the whole-program speedup the selections predict
// (Amdahl): each winner's modeled Seq replaced by its Par in totalCycles,
// the profile's cycle count for the untransformed program. Under
// opts.ExecutePlans a loop has a winner only once it was lowered and the
// comm tier accepted it; a pinned run prices nothing and reads 1.
func (r *Result) ModeledSpeedup(totalCycles int64) float64 {
	var seqs, pars []int64
	for i := range r.Selections {
		if w := r.Selections[i].Won(); w != nil {
			seqs, pars = append(seqs, w.Seq), append(pars, w.Par)
		}
	}
	return machine.Speedup(totalCycles, seqs, pars)
}

// Run is the competing run over every registered planner (the auto
// tool).
func Run(ctx context.Context, n *core.Noelle, opts tool.Options) (Result, error) {
	return RunWith(ctx, n, opts, tool.Planners())
}

// RunWith is the competing run over the caller's planner set: each of
// them answers for every hot loop and the predicted-fastest profitable
// plan wins. With opts.ExecutePlans the winning plans are lowered;
// otherwise the selection is a pure prediction report and the module is
// left untouched. The evaluation's Figure 5 holds it to one planner per
// column, which (unlike RunPinned) keeps the pricing and the Par < Seq
// gate.
func RunWith(ctx context.Context, n *core.Noelle, opts tool.Options, planners []tool.Planner) (Result, error) {
	if len(planners) == 0 {
		return Result{}, fmt.Errorf("no technique planners registered")
	}
	return drive(ctx, n, opts, planners, "")
}

// RunPinned is the pinned run: only the named technique's planner
// answers, nothing is scored, and under opts.ExecutePlans every plan is
// lowered (generated tasks are named <technique>.taskN).
func RunPinned(ctx context.Context, n *core.Noelle, opts tool.Options, technique string) (Result, error) {
	p, ok := tool.LookupPlanner(technique)
	if !ok {
		return Result{}, fmt.Errorf("no planner registered for technique %q", technique)
	}
	return drive(ctx, n, opts, []tool.Planner{p}, technique)
}

// drive walks the loop forest under every hot loop, deciding each node
// with selectLoop. A competing run prices every loop it may visit first.
func drive(ctx context.Context, n *core.Noelle, opts tool.Options, planners []tool.Planner, pinned string) (res Result, err error) {
	res.Pinned = pinned
	taskID := 0
	roots := n.HotLoops()
	var pr *pricer
	if pinned == "" {
		if pr, err = priceUpFront(ctx, n, opts, planners, roots); err != nil {
			return res, err
		}
		defer func() { res.TrainingRuns, res.PriceMisses = pr.runs, pr.misses }()
	}

	// selectNode decides for one loop-forest node; returns true when this
	// subtree selected a technique (successful selection stops descent).
	var selectNode func(f *ir.Function, header string) (bool, error)
	selectNode = func(f *ir.Function, header string) (bool, error) {
		if err := ctx.Err(); err != nil {
			return false, err
		}
		// Re-derive the forest each time: earlier lowerings change the
		// function's loop structure.
		node := forestNode(n, f, header)
		if node == nil {
			return false, nil
		}
		misses := pr.missCount()
		sel, ok, err := selectLoop(n, node.LS, opts, planners, pr, &taskID)
		if err != nil {
			return false, err
		}
		if pr.missCount() > misses {
			sel.Why += "; re-priced alone: its plans changed after the up-front pricing"
		}
		res.Selections = append(res.Selections, *sel)
		if ok {
			return true, nil
		}
		res.Rejections = append(res.Rejections, tool.LoopRejection{
			Fn: f.Nam, Header: header, Reason: sel.Why,
		})
		// Descend: collect child headers first (the forest object is
		// invalidated by successful child lowerings).
		var childHeaders []string
		for _, c := range node.Children {
			childHeaders = append(childHeaders, c.LS.Header.Nam)
		}
		any := false
		for _, ch := range childHeaders {
			got, err := selectNode(f, ch)
			if err != nil {
				return false, err
			}
			if got {
				any = true
			}
		}
		return any, nil
	}

	for _, ls := range roots {
		if _, err := selectNode(ls.Fn, ls.Header.Nam); err != nil {
			return res, err
		}
	}
	return res, nil
}

// forestNode finds the loop headed by the block named header in f's
// current forest.
func forestNode(n *core.Noelle, f *ir.Function, header string) *loops.ForestNode {
	for _, node := range n.Forest(f).Nodes() {
		if node.LS.Header.Nam == header {
			return node
		}
	}
	return nil
}

// pricer is a competing run's training: the up-front rows of every loop
// that had a plan, by header, and the runs and misses it took.
type pricer struct {
	loops        map[*ir.Block]*upFront
	runs, misses int
}

// upFront is one loop as it was planned and priced before any lowering:
// its blocks, which techniques planned it, and each plan's segmentation
// with its rows (nil when the training run failed).
type upFront struct {
	blocks map[*ir.Block]bool
	techs  []string
	specs  []machine.SegSpec
	rows   [][]*machine.Invocation
}

// priceUpFront plans every loop under each hot root with every planner
// and prices all the plans in one AttributeLoops run. Planning is
// read-only, so the module the loops are then decided on is the one
// priced here. If that run fails no loop is served from it: each is
// priced alone, and the first of them reports the failure.
func priceUpFront(ctx context.Context, n *core.Noelle, opts tool.Options, planners []tool.Planner, roots []*loops.LS) (*pricer, error) {
	pr := &pricer{loops: map[*ir.Block]*upFront{}}
	var reqs []machine.LoopSpecs
	var planned []*upFront
	var visit func(node *loops.ForestNode) error
	visit = func(node *loops.ForestNode) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		ls := node.LS
		u := &upFront{blocks: ls.Nat.Blocks}
		for _, p := range planners {
			if plan, err := p.PlanLoop(n, ls, opts); err == nil {
				u.techs = append(u.techs, p.Technique())
				u.specs = append(u.specs, segSpec(plan))
			}
		}
		if len(u.specs) > 0 {
			pr.loops[ls.Header] = u
			reqs = append(reqs, machine.LoopSpecs{Loop: ls.Nat, Specs: u.specs})
			planned = append(planned, u)
		}
		for _, c := range node.Children {
			if err := visit(c); err != nil {
				return err
			}
		}
		return nil
	}
	for _, root := range roots {
		if node := forestNode(n, root.Fn, root.Header.Nam); node != nil {
			if err := visit(node); err != nil {
				return nil, err
			}
		}
	}
	if len(reqs) == 0 {
		return pr, nil
	}
	pr.runs++
	if all, err := machine.AttributeLoops(n.Mod, reqs); err == nil {
		for i, u := range planned {
			u.rows = all[i]
		}
	}
	return pr, nil
}

// missCount is the misses so far (0 for a pinned run's nil pricer).
func (pr *pricer) missCount() int {
	if pr == nil {
		return 0
	}
	return pr.misses
}

func segSpec(p tool.Plan) machine.SegSpec {
	segOf, numSegs := p.Segments()
	return machine.SegSpec{SegmentOf: segOf, NumSegs: numSegs}
}

// selectLoop plans, scores (unless pinned: pr is nil), and (under
// opts.ExecutePlans) lowers one loop. ok reports whether a technique was
// selected.
func selectLoop(n *core.Noelle, ls *loops.LS, opts tool.Options, planners []tool.Planner, pr *pricer, taskID *int) (*Selection, bool, error) {
	sel := &Selection{Fn: ls.Fn.Nam, Header: ls.Header.Nam}

	// ---- plan: every technique answers (a plan or a reason) ----
	var planned []*Candidate
	// Preallocate so the &sel.Candidates[i] pointers below stay valid.
	sel.Candidates = make([]Candidate, 0, len(planners))
	for _, p := range planners {
		c := Candidate{Technique: p.Technique()}
		plan, err := p.PlanLoop(n, ls, opts)
		if err != nil {
			c.Rejection = err.Error()
		} else {
			c.Plan = plan
			c.Shape = plan.Describe()
		}
		sel.Candidates = append(sel.Candidates, c)
		if c.Rejection == "" {
			planned = append(planned, &sel.Candidates[len(sel.Candidates)-1])
		}
	}
	if len(planned) == 0 {
		var reasons []string
		for _, c := range sel.Candidates {
			reasons = append(reasons, c.rejected())
		}
		sel.Why = "no technique produced a plan (" + strings.Join(reasons, "; ") + ")"
		return sel, false, nil
	}

	// ---- select: a pinned run takes its one plan as it is, unpriced; a
	// competing run takes the fastest profitable one, if any ----
	w, prefix, verb := planned[0], "", "planned"
	if pr != nil {
		prefix, verb = "auto.", "predicted"
		var err error
		if w, err = pr.fastest(n, ls, sel, planned); err != nil || w == nil {
			return sel, false, err
		}
	}
	why := func(verb string) string {
		if pr == nil {
			return fmt.Sprintf("%s %s (%s)", w.Technique, verb, w.Shape)
		}
		return winnerWhy(w, sel.Candidates, verb)
	}
	sel.Winner = w.Technique
	if !opts.ExecutePlans {
		sel.Why = why(verb)
		return sel, true, nil
	}

	// ---- lower: the plan promised it can be, so a failure is an error ----
	name := fmt.Sprintf("%s%s.task%d", prefix, w.Technique, *taskID)
	if err := w.Plan.Lower(name); err != nil {
		return sel, false, fmt.Errorf("@%s/%s: %s planned the loop but did not lower it: %w", ls.Fn.Nam, ls.Header.Nam, w.Technique, err)
	}
	// Static verification gates dynamic execution: fail the run with the
	// named invariant instead of letting the miscompile run.
	if verr := verify.Module(n.Mod, verify.TierComm).Err(); verr != nil {
		return sel, false, fmt.Errorf("@%s/%s: %s lowering: %w", ls.Fn.Nam, ls.Header.Nam, w.Technique, verr)
	}
	*taskID++
	sel.TaskName = name
	sel.Lowered = true
	sel.Why = why("lowered")
	return sel, true, nil
}

// fastest is the competing run's scoring step: the up-front training
// run's rows price every plan at once when the loop's plans segment it as
// they did then; otherwise the loop is priced alone on the current module
// (machine.AttributeLoops, a batch of one). It returns the plan with the
// fastest modeled time (registry order breaks ties) when that time beats
// the sequential one; otherwise nil, with sel.Why saying why the loop
// stays sequential.
func (pr *pricer) fastest(n *core.Noelle, ls *loops.LS, sel *Selection, planned []*Candidate) (*Candidate, error) {
	specs := make([]machine.SegSpec, len(planned))
	techs := make([]string, len(planned))
	for i, c := range planned {
		specs[i], techs[i] = segSpec(c.Plan), c.Technique
	}
	u := pr.loops[ls.Header]
	if u == nil || u.rows == nil || !maps.Equal(u.blocks, ls.Nat.Blocks) || !slices.Equal(u.techs, techs) ||
		!slices.EqualFunc(u.specs, specs, func(a, b machine.SegSpec) bool {
			return a.NumSegs == b.NumSegs && maps.Equal(a.SegmentOf, b.SegmentOf)
		}) {
		pr.runs++
		pr.misses++
		all, err := machine.AttributeLoops(n.Mod, []machine.LoopSpecs{{Loop: ls.Nat, Specs: specs}})
		if err != nil {
			return nil, fmt.Errorf("@%s/%s: %w", ls.Fn.Nam, ls.Header.Nam, err)
		}
		u = &upFront{rows: all[0]}
	}
	invss := u.rows
	if len(invss[0]) == 0 {
		sel.Why = "loop not executed by the training input (nothing to score)"
		return nil, nil
	}
	seq := machine.SequentialCycles(invss[0])
	best := planned[0]
	for i, c := range planned {
		c.Seq = seq
		c.Par = machine.SimulateAll(invss[i], c.Plan.EstimateInvocation)
		if c.Par < best.Par {
			best = c
		}
	}
	if best.Par >= seq {
		sel.Why = fmt.Sprintf("no technique predicted a speedup (best %s: %d >= seq %d cycles)",
			best.Technique, best.Par, seq)
		return nil, nil
	}
	return best, nil
}

// winnerWhy renders the "why this technique won" line: the winner's
// modeled speedup next to every competitor's score or rejection.
func winnerWhy(w *Candidate, cands []Candidate, verb string) string {
	var others []string
	for _, c := range cands {
		if c.Technique == w.Technique {
			continue
		}
		if c.Rejection != "" {
			others = append(others, c.rejected())
		} else {
			others = append(others, fmt.Sprintf("%s %.2fx", c.Technique, c.Speedup()))
		}
	}
	return fmt.Sprintf("%s %s %.2fx modeled (%s; seq %d cycles) vs %s",
		w.Technique, verb, w.Speedup(), w.Shape, w.Seq, strings.Join(others, ", "))
}

// Planner API: the plan/estimate/lower split that is the only
// per-technique seam of loop parallelization.
//
// Each parallelizing technique (doall, dswp, helix) registers a Planner
// next to its Tool. A Planner turns one hot loop into a Plan without
// mutating the module; the Plan exposes its segmentation so the machine
// package can price it against measured per-iteration costs, estimates
// its own parallel time under the technique's scheduling recurrence, and
// — only when asked — lowers the loop to executable form. A plan is a
// promise: a planner refuses a loop its code generator does not cover,
// so every Plan it returns can be lowered.
//
// Everything around that seam exists once, in the driver of
// internal/tools/auto: the walk over the hot loops and their children,
// task naming, post-lowering verification, the per-loop decision record
// and its report. The driver runs in two modes. Competing (the auto
// tool) plans every loop it may visit with every technique before
// lowering any, prices all the plans in one training run, then per loop
// scores each technique's plan against those rows and lowers only the
// predicted-fastest profitable one. Pinned (the doall, dswp and helix
// tools: the user named the technique) asks one planner and lowers every
// plan, with no scoring, no training run and no profitability gate — so a
// technique's tool is a planner registration plus a few lines that pin
// the driver to it.

package tool

import (
	"sort"
	"sync"

	"noelle/internal/core"
	"noelle/internal/ir"
	"noelle/internal/loops"
	"noelle/internal/machine"
)

// Plan is one technique's parallel schedule for one loop. Producing a
// Plan never mutates the module; only Lower does.
type Plan interface {
	// Technique is the registered planner name that produced the plan.
	Technique() string
	// Segments exposes the instruction→segment assignment and segment
	// count that machine.AttributeLoops consumes. A nil map with one
	// segment means "whole body in one segment" (DOALL-style plans).
	Segments() (segmentOf map[*ir.Instr]int, numSegs int)
	// EstimateInvocation returns the modeled parallel cycles of one
	// measured invocation under this plan, including the technique's
	// lowering overheads (per-task dispatch, queue traffic, signal
	// latency). Lower values are better; the caller compares it against
	// the invocation's sequential cycles for profitability. inv is valid
	// only during the call: the training run prices each invocation as it
	// closes and reuses its rows for the next one (machine.PriceLoops).
	EstimateInvocation(inv *machine.Invocation) int64
	// Lower rewrites the loop into its executable parallel form, naming
	// generated task functions after taskName. The planner already
	// checked that its code generator covers the loop, so an error here
	// is a planner bug, which the driver reports as its own error. Lower
	// invalidates the manager's cached abstractions, and no plan made
	// before it survives it: the caller plans a loop only once every
	// earlier lowering is done.
	Lower(taskName string) error
	// Describe is a one-line account of the plan's shape ("4 stages",
	// "2 sequential segments").
	Describe() string
}

// Planner is one parallelization technique's planning entry point.
// Implementations live in the technique packages (internal/tools/doall,
// dswp, helix) and self-register from init, next to the Tool that pins
// the driver to them.
type Planner interface {
	// Technique is the registry key (lower-case).
	Technique() string
	// PlanLoop plans ls without lowering it, and returns a plan only if
	// its Lower will succeed. The error is the per-loop rejection reason
	// surfaced to the user (LoopRejection.Reason).
	// Implementations must not mutate the module: the auto driver plans
	// every candidate loop up front and prices the module it planned.
	PlanLoop(n *core.Noelle, ls *loops.LS, opts Options) (Plan, error)
}

var (
	plannerMu  sync.RWMutex
	plannerReg = map[string]Planner{}
)

// RegisterPlanner adds p to the process-wide planner registry. Technique
// packages call it from init; duplicate names are a programming error and
// panic.
func RegisterPlanner(p Planner) {
	name := p.Technique()
	if name == "" {
		panic("tool: RegisterPlanner with empty technique name")
	}
	plannerMu.Lock()
	defer plannerMu.Unlock()
	if _, dup := plannerReg[name]; dup {
		panic("tool: duplicate planner registration of " + name)
	}
	plannerReg[name] = p
}

// LookupPlanner resolves a registered planner by technique name.
func LookupPlanner(name string) (Planner, bool) {
	plannerMu.RLock()
	defer plannerMu.RUnlock()
	p, ok := plannerReg[name]
	return p, ok
}

// Planners returns every registered planner, sorted by technique name.
// The order is the selection tie-break: when two plans predict the same
// parallel time, the earlier technique wins.
func Planners() []Planner {
	plannerMu.RLock()
	out := make([]Planner, 0, len(plannerReg))
	for _, p := range plannerReg {
		out = append(out, p)
	}
	plannerMu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Technique() < out[j].Technique() })
	return out
}

// PlannerNames returns the sorted technique names of every registered
// planner.
func PlannerNames() []string {
	ps := Planners()
	out := make([]string, len(ps))
	for i, p := range ps {
		out[i] = p.Technique()
	}
	return out
}

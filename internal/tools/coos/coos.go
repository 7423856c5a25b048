// Package coos is the NOELLE-based Compiler-based Timing custom tool
// (paper Section 3): it injects calls to an OS callback routine so that no
// execution window longer than a budget elapses without one, replacing
// hardware timer interrupts. It propagates worst-case "cycles since last
// callback" across the CFG (a max data-flow analysis iterated to a fixed
// point over the blocks), uses the loop forest to handle potentially
// unbounded loops, and uses the call graph to account for callees.
package coos

import (
	"noelle/internal/core"
	"noelle/internal/interp"
	"noelle/internal/ir"
	"noelle/internal/loops"
)

// Result summarizes the instrumentation.
type Result struct {
	// Inserted is the number of callback calls injected.
	Inserted int
	// Budget is the configured maximum gap, in cost-model cycles.
	Budget int64
}

// summary captures a callee's effect on the caller's gap analysis.
type summary struct {
	// maxGap is the longest callback-free window inside the function.
	maxGap int64
	// entryToCB is the worst-case cycles from entry to the first callback
	// (== whole cost when the function has none).
	entryToCB int64
	// cbToExit is the worst-case cycles from the last callback to return.
	cbToExit int64
	// hasCB reports whether every path is eventually punctuated (after
	// instrumentation this is true whenever the function was processed).
	hasCB bool
}

// Run instruments every function reachable from main, callees first.
func Run(n *core.Noelle, budget int64) Result {
	n.Use(core.AbsForest)
	n.Use(core.AbsLB)
	res := Result{Budget: budget}
	cg := n.CallGraph()
	cbFn := n.Mod.DeclareFunction(interp.ExternCallback, ir.FuncOf(ir.VoidType))

	summaries := map[*ir.Function]*summary{}
	// Callees first: reverse topological order of the call-graph SCC DAG
	// (Tarjan's output order is already callees-first).
	for _, scc := range cg.SCCs() {
		for _, f := range scc.Nodes {
			if f.IsDeclaration() || f == cbFn {
				continue
			}
			recursive := scc.HasInternalEdge
			res.Inserted += instrument(n, f, cbFn, budget, summaries, recursive)
		}
	}
	if res.Inserted > 0 {
		n.InvalidateModule()
	}
	return res
}

// instrument inserts callbacks in f so no window exceeds budget, assuming
// the caller's window is empty at entry (main) or accounted by the
// caller through the summary.
func instrument(n *core.Noelle, f *ir.Function, cbFn *ir.Function, budget int64, summaries map[*ir.Function]*summary, recursive bool) int {
	inserted := 0
	bld := ir.NewBuilder()

	// Loops first (the L/FR-powered part): a loop whose body never resets
	// the window will exceed any budget once it spins long enough. When
	// the trip count is statically known and the whole loop fits in the
	// budget it is left alone; otherwise the body gets a callback.
	inserted += instrumentLoops(n, f, cbFn, budget)

	callCost := func(in *ir.Instr) (cost int64, resets bool) {
		callee := in.CalledFunction()
		if callee == nil {
			// Indirect call: assume the worst budget-compatible cost; the
			// possible callees were instrumented already, so their
			// internal gaps are bounded — model entry+exit windows.
			return budget / 2, false
		}
		if s, ok := summaries[callee]; ok {
			if s.hasCB {
				return s.entryToCB, true
			}
			return s.maxGap, false
		}
		// Extern or recursive not-yet-summarized callee.
		if callee.IsDeclaration() {
			return interp.CostExternFix, false
		}
		return budget, false // conservative for recursion
	}

	// Worst-case gap at block entry; iterate to a fixed point. Callback
	// insertion only lowers gaps, so we insert while propagating.
	gapIn := map[*ir.Block]int64{}
	for _, b := range f.Blocks {
		gapIn[b] = 0
	}
	changed := true
	for rounds := 0; changed && rounds < len(f.Blocks)+8; rounds++ {
		changed = false
		for _, b := range f.Blocks {
			cur := gapIn[b]
			for idx := 0; idx < len(b.Instrs); idx++ {
				in := b.Instrs[idx]
				if in.Opcode == ir.OpCall && in.CalledFunction() == cbFn {
					cur = 0
					continue
				}
				var cost int64
				resets := false
				if in.Opcode == ir.OpCall {
					c, r := callCost(in)
					cost, resets = c+interp.CostCallOver, r
				} else {
					cost = interp.Cost(in)
				}
				if cur+cost > budget && !resets {
					// Punctuate before this instruction.
					bld.SetInsertionBefore(in)
					bld.CreateCall(cbFn, nil, "")
					inserted++
					cur = cost
					idx++ // skip over the instruction we just re-examined
					continue
				}
				if resets {
					callee := in.CalledFunction()
					cur = summaries[callee].cbToExit
				} else {
					cur += cost
				}
			}
			for _, s := range b.Successors() {
				if cur > gapIn[s] {
					gapIn[s] = cur
					changed = true
				}
			}
		}
	}

	// Recursive functions: guarantee a callback per activation so deep
	// recursion cannot starve the OS.
	if recursive && !hasCallback(f, cbFn) {
		entry := f.Entry()
		bld.SetInsertionBefore(entry.Instrs[entry.FirstNonPhi()])
		bld.CreateCall(cbFn, nil, "")
		inserted++
	}

	summaries[f] = summarize(f, cbFn, budget)
	return inserted
}

// instrumentLoops places one callback in every loop that can outlive the
// budget, innermost-first so outer loops see the inner reset.
func instrumentLoops(n *core.Noelle, f *ir.Function, cbFn *ir.Function, budget int64) int {
	inserted := 0
	bld := ir.NewBuilder()
	for _, node := range n.Forest(f).InnermostFirst() {
		ls := node.LS
		if loopHasReset(ls, cbFn) {
			continue
		}
		var bodyCost int64
		ls.Instrs(func(in *ir.Instr) bool {
			bodyCost += interp.Cost(in)
			return true
		})
		l := n.Loop(ls)
		if tc, ok := l.IVs.TripCount(); ok && bodyCost*tc <= budget {
			continue // provably short loop: fits in one window
		}
		// Insert at the top of the header, after phis.
		header := ls.Header
		idx := header.FirstNonPhi()
		if idx >= len(header.Instrs) {
			continue
		}
		bld.SetInsertionBefore(header.Instrs[idx])
		bld.CreateCall(cbFn, nil, "")
		inserted++
		n.InvalidateFunction(f)
	}
	return inserted
}

// loopHasReset reports whether the loop body already contains a callback
// or a call to an instrumented (callback-containing) function.
func loopHasReset(ls *loops.LS, cbFn *ir.Function) bool {
	found := false
	ls.Instrs(func(in *ir.Instr) bool {
		if in.Opcode == ir.OpCall {
			if callee := in.CalledFunction(); callee == cbFn || (callee != nil && hasCallback(callee, cbFn)) {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

func hasCallback(f *ir.Function, cbFn *ir.Function) bool {
	found := false
	f.Instrs(func(in *ir.Instr) bool {
		if in.Opcode == ir.OpCall && in.CalledFunction() == cbFn {
			found = true
			return false
		}
		return true
	})
	return found
}

// summarize computes the caller-visible windows after instrumentation.
func summarize(f *ir.Function, cbFn *ir.Function, budget int64) *summary {
	s := &summary{hasCB: hasCallback(f, cbFn)}
	if !s.hasCB {
		// Short leaf function: its whole cost is one window.
		var total int64
		f.Instrs(func(in *ir.Instr) bool {
			total += interp.Cost(in)
			return true
		})
		if total > budget {
			total = budget // bounded by construction of the insertion pass
		}
		s.maxGap, s.entryToCB, s.cbToExit = total, total, total
		return s
	}
	// Instrumented: internal gaps are bounded by the budget; entry/exit
	// windows are at most the budget too.
	s.maxGap, s.entryToCB, s.cbToExit = budget, budget, budget
	return s
}

// MeasureMaxGap runs the program and returns the longest observed window
// (in cost-model cycles) between consecutive callbacks — the validation
// metric for this tool.
func MeasureMaxGap(m *ir.Module) (maxGap int64, callbacks int64, err error) {
	it := interp.New(m)
	// Gap measurement orders callbacks against one global clock; dispatch
	// must therefore run sequentially (the closure below is not
	// worker-safe, and a per-worker notion of "gap" is meaningless).
	it.SeqDispatch = true
	var last int64
	it.RegisterExtern(interp.ExternCallback, func(it *interp.Interp, args []uint64) (uint64, error) {
		gap := it.Cycles - last
		if gap > maxGap {
			maxGap = gap
		}
		last = it.Cycles
		callbacks++
		return 0, nil
	})
	if _, err := it.Run(); err != nil {
		return 0, 0, err
	}
	if final := it.Cycles - last; final > maxGap {
		maxGap = final
	}
	return maxGap, callbacks, nil
}

package machine_test

import (
	"testing"

	"noelle/internal/bench"
	"noelle/internal/core"
	"noelle/internal/interp"
	"noelle/internal/ir"
	"noelle/internal/machine"
	"noelle/internal/tools/helix"
)

// TestHELIXBlockCostCalibration holds the HELIX planner's estimate to
// what its lowering executes (ROADMAP 1c's 2x bound, for this technique).
// Planned for one core the HELIX recurrence degenerates to the sum of the
// blocks' work, which is what Cycles measures for the lowered loop: the
// original's cycles for the loop, plus the phase loops' replicated
// control, the crossing-value buffer traffic, and one wait, fire, reload,
// write-back and task spawn per block.
func TestHELIXBlockCostCalibration(t *testing.T) {
	cycles := func(m *ir.Module) int64 {
		it := interp.New(m)
		if _, err := it.Run(); err != nil {
			t.Fatalf("run: %v", err)
		}
		return it.Cycles
	}
	for _, size := range []int{1000, 40000} {
		m, err := bench.PipelineProgram(size)
		if err != nil {
			t.Fatalf("PipelineProgram: %v", err)
		}
		whole := cycles(ir.CloneModule(m))

		opts := core.DefaultOptions()
		opts.MinHotness, opts.Cores = 0, 1
		n := core.New(m, opts)
		var plan *helix.Plan
		for _, ls := range n.HotLoops() {
			if p, _ := helix.PlanLoop(n, ls); p != nil && p.NumSeq == 1 {
				plan = p
			}
		}
		if plan == nil {
			t.Fatal("no loop of PipelineProgram plans with one sequential segment")
		}
		segOf, numSegs := plan.Segments()
		invs, err := machine.AttributeLoopCosts(m, plan.LS.Nat, segOf, numSegs)
		if err != nil {
			t.Fatalf("attribution: %v", err)
		}
		loop := machine.SequentialCycles(invs)
		modeled := machine.SimulateAll(invs, plan.EstimateInvocation)

		if err := plan.Lower("helix.task0"); err != nil {
			t.Fatalf("lower: %v", err)
		}
		executed := cycles(m) - (whole - loop)
		ratio := float64(modeled) / float64(executed)
		t.Logf("size %d: loop %d cycles originally; lowered: modeled %d, executed %d (%.3fx)",
			size, loop, modeled, executed, ratio)
		if ratio > 2 || ratio < 0.5 {
			t.Errorf("size %d: modeled %d vs executed %d cycles: off by more than 2x", size, modeled, executed)
		}
	}
}

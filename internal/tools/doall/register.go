package doall

import (
	"context"

	"noelle/internal/core"
	"noelle/internal/tool"
	"noelle/internal/tools/auto"
)

// doallTool is the loop-parallelization driver pinned to the DOALL
// planner.
type doallTool struct{}

func init() {
	tool.RegisterPlanner(planner{})
	tool.Register(doallTool{})
}

func (doallTool) Name() string { return "doall" }
func (doallTool) Describe() string {
	return "rewrite iteration-independent hot loops into dispatched tasks (aSCCDAG + ENV + T + IVS)"
}
func (doallTool) Transforms() bool { return true }

func (doallTool) Run(ctx context.Context, n *core.Noelle, opts tool.Options) (tool.Report, error) {
	opts.ExecutePlans = true // DOALL has always lowered what it plans
	r, err := auto.RunPinned(ctx, n, opts, "doall")
	rep := auto.Report(r, opts)
	// The benchmark's doall_map workload still reads "parallelized"; the
	// next [benchmark] PR switches its loweredKey to "lowered" and drops
	// this alias.
	rep.Metrics["parallelized"] = rep.Metrics["lowered"]
	return rep, err
}

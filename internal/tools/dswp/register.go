package dswp

import (
	"context"

	"noelle/internal/core"
	"noelle/internal/tool"
	"noelle/internal/tools/auto"
)

// dswpTool is the loop-parallelization driver pinned to the DSWP planner.
type dswpTool struct{}

func init() {
	tool.RegisterPlanner(planner{})
	tool.Register(dswpTool{})
}

func (dswpTool) Name() string { return "dswp" }
func (dswpTool) Describe() string {
	return "pipeline hot-loop SCCs across cores with unidirectional queue communication (aSCCDAG + PRO)"
}

// Transforms is true because the executable mode (Options.ExecutePlans)
// rewrites planned loops into dispatched stage pipelines; TransformsWith
// narrows that to the runs that actually lower, so plan-only stages keep
// the pipeline's cached abstractions.
func (dswpTool) Transforms() bool { return true }

func (dswpTool) TransformsWith(opts tool.Options) bool { return opts.ExecutePlans }

func (dswpTool) Run(ctx context.Context, n *core.Noelle, opts tool.Options) (tool.Report, error) {
	r, err := auto.RunPinned(ctx, n, opts, "dswp")
	return auto.Report(r, opts), err
}

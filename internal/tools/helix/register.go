package helix

import (
	"context"

	"noelle/internal/core"
	"noelle/internal/tool"
	"noelle/internal/tools/auto"
)

// helixTool is the SCD header-shrinking pre-pass followed by the
// loop-parallelization driver pinned to the HELIX planner.
type helixTool struct{}

func init() {
	tool.RegisterPlanner(planner{})
	tool.Register(helixTool{})
}

func (helixTool) Name() string { return "helix" }
func (helixTool) Describe() string {
	return "slice hot-loop iterations into signal-guarded sequential segments overlapped across cores (aSCCDAG + SCD + AR)"
}

// Transforms is true because the SCD header-shrinking pre-pass moves
// instructions, and the executable mode (Options.ExecutePlans) rewrites
// planned loops into dispatched iterations; TransformsWith narrows that
// to runs where either mutation can happen.
func (helixTool) Transforms() bool { return true }

func (helixTool) TransformsWith(opts tool.Options) bool {
	return opts.Optimize || opts.ExecutePlans
}

func (helixTool) Run(ctx context.Context, n *core.Noelle, opts tool.Options) (tool.Report, error) {
	shrunk := 0
	if opts.Optimize && ctx.Err() == nil { // a cancelled run rewrites nothing
		shrunk = ShrinkHeaders(n)
	}
	r, err := auto.RunPinned(ctx, n, opts, "helix")
	rep := auto.Report(r, opts)
	rep.Metrics["header_shrunk"] = int64(shrunk)
	return rep, err
}

package dead

import (
	"context"
	"fmt"

	"noelle/internal/core"
	"noelle/internal/tool"
)

// deadTool adapts the package to the uniform Tool API.
type deadTool struct{}

func init() { tool.Register(deadTool{}) }

func (deadTool) Name() string { return "dead" }
func (deadTool) Describe() string {
	return "delete functions the complete call graph proves unreachable (CG)"
}
func (deadTool) Transforms() bool { return true }

func (deadTool) Run(_ context.Context, n *core.Noelle, _ tool.Options) (tool.Report, error) {
	r := Run(n)
	return tool.Report{
		Summary: fmt.Sprintf("removed %d functions, stubbed %d whose address is taken (%d -> %d instrs, -%.1f%%)",
			r.Removed, r.Stubbed, r.InstrsBefore, r.InstrsAfter, r.ReductionPercent()),
		Metrics: map[string]int64{
			"removed":       int64(r.Removed),
			"stubbed":       int64(r.Stubbed),
			"instrs_before": int64(r.InstrsBefore),
			"instrs_after":  int64(r.InstrsAfter),
		},
	}, nil
}

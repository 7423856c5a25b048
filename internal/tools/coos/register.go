package coos

import (
	"context"
	"fmt"

	"noelle/internal/core"
	"noelle/internal/tool"
)

// coosTool adapts the package to the uniform Tool API.
type coosTool struct{}

func init() { tool.Register(coosTool{}) }

func (coosTool) Name() string { return "coos" }
func (coosTool) Describe() string {
	return "bound callback-free execution windows by a cycle budget (FR + LB + CG)"
}
func (coosTool) Transforms() bool { return true }

func (coosTool) Run(_ context.Context, n *core.Noelle, opts tool.Options) (tool.Report, error) {
	r := Run(n, opts.Budget)
	return tool.Report{
		Summary: fmt.Sprintf("inserted %d callbacks (budget %d cycles)", r.Inserted, r.Budget),
		Metrics: map[string]int64{
			"inserted": int64(r.Inserted),
			"budget":   r.Budget,
		},
	}, nil
}

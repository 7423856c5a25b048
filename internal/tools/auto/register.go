package auto

import (
	"context"
	"fmt"
	"strings"

	"noelle/internal/core"
	"noelle/internal/tool"
)

// autoTool adapts the orchestrator to the uniform Tool API.
type autoTool struct{}

func init() { tool.Register(autoTool{}) }

func (autoTool) Name() string { return "auto" }
func (autoTool) Describe() string {
	return "per-loop technique selection: score every planner's plan with the machine model, lower the predicted-fastest (PRO + aSCCDAG + AR + the winner's stack)"
}

// Transforms is true because -exec-plans lowers the winning plans;
// TransformsWith narrows that so plan-only runs (pure prediction
// reports) keep the pipeline's cached abstractions.
func (autoTool) Transforms() bool { return true }

func (autoTool) TransformsWith(opts tool.Options) bool { return opts.ExecutePlans }

func (autoTool) Run(ctx context.Context, n *core.Noelle, opts tool.Options) (tool.Report, error) {
	r, err := Run(ctx, n, opts)
	if err != nil {
		return tool.Report{}, err
	}
	return Report(r, opts), nil
}

// Report renders a driver Result, competing or pinned, in the one
// vocabulary the four parallelizing tools share: how many visited loops
// got a technique, one why-line per loop (with its task name), one line
// per loop left sequential, and the metrics loops / selected / lowered /
// unparallelized / selected_<technique>, plus a competing run's
// training_runs / price_misses.
func Report(r Result, opts tool.Options) tool.Report {
	perTech := map[string]int64{}
	for _, s := range r.Selections {
		if s.Winner != "" {
			perTech[s.Winner]++
		}
	}
	var techSummary []string
	for _, tech := range tool.PlannerNames() {
		if perTech[tech] > 0 {
			techSummary = append(techSummary, fmt.Sprintf("%s %d", tech, perTech[tech]))
		}
	}
	verb, visited := "predicted winners for", "scored"
	if opts.ExecutePlans {
		verb = "selected and lowered for"
	}
	if r.Pinned != "" {
		// A pinned run neither scores nor selects.
		verb, visited = "planned", "visited"
		if opts.ExecutePlans {
			verb = "lowered"
		}
	}
	rep := tool.Report{
		Summary: fmt.Sprintf("%s %d/%d %s loops (%s)",
			verb, r.Selected(), len(r.Selections), visited, strings.Join(techSummary, ", ")),
		Metrics: map[string]int64{
			"loops":          int64(len(r.Selections)),
			"selected":       int64(r.Selected()),
			"lowered":        int64(r.Lowered()),
			"unparallelized": int64(len(r.Rejections)),
		},
	}
	if r.Pinned == "" {
		rep.Metrics["training_runs"] = int64(r.TrainingRuns)
		rep.Metrics["price_misses"] = int64(r.PriceMisses)
	}
	for tech, cnt := range perTech {
		rep.Metrics["selected_"+tech] = cnt
	}

	for _, s := range r.Selections {
		line := fmt.Sprintf("@%s/%s: %s", s.Fn, s.Header, s.Why)
		if s.TaskName != "" {
			line += " -> " + s.TaskName
		}
		rep.Detail = append(rep.Detail, line)
	}
	for _, rej := range r.Rejections {
		rep.Detail = append(rep.Detail, "unparallelized "+rej.String())
	}
	return rep
}

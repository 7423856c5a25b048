package carat

import (
	"context"
	"fmt"

	"noelle/internal/core"
	"noelle/internal/interp"
	"noelle/internal/tool"
)

// caratTool adapts the package to the uniform Tool API.
type caratTool struct{}

func init() { tool.Register(caratTool{}) }

func (caratTool) Name() string { return "carat" }
func (caratTool) Describe() string {
	return "inject address-validation guards, eliding those the PDG and dominance prove redundant"
}
func (caratTool) Transforms() bool { return true }

func (caratTool) Run(_ context.Context, n *core.Noelle, opts tool.Options) (tool.Report, error) {
	r := Run(n)
	rep := tool.Report{
		Summary: fmt.Sprintf("%d accesses, %d proven, %d guards (%d elided, %d hoisted)",
			r.Accesses, r.Proven, r.Guards, r.Elided, r.Hoisted),
		Metrics: map[string]int64{
			"accesses": int64(r.Accesses),
			"proven":   int64(r.Proven),
			"guards":   int64(r.Guards),
			"elided":   int64(r.Elided),
			"hoisted":  int64(r.Hoisted),
		},
	}
	// Measured validation: execute the instrumented program and report
	// the dynamic guard behaviour. Guard counters are per-worker and fold
	// deterministically at the dispatch barrier, so this run honours the
	// pipeline's execution config (noelle-load -seq/-dispatch-workers/-engine).
	// Modules without a main (library inputs) skip the run; an execution
	// failure is surfaced in the report without aborting the pipeline.
	if n.Mod.FunctionByName("main") != nil {
		it := interp.New(n.Mod)
		it.ExecConfig = opts.ExecConfig
		if _, err := it.Run(); err != nil {
			rep.Detail = append(rep.Detail, fmt.Sprintf("guard validation run failed: %v", err))
			rep.Metrics["guard_run_failed"] = 1
		} else {
			rep.Metrics["guard_calls"] = it.GuardCalls
			rep.Metrics["guard_failures"] = it.GuardFailures
			rep.Detail = append(rep.Detail, it.WorkerStatLines()...)
		}
	}
	return rep, nil
}

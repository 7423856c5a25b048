package tools_test

import (
	"context"
	"strings"
	"testing"

	"noelle/internal/bench"
	"noelle/internal/core"
	"noelle/internal/interp"
	"noelle/internal/obs"
	"noelle/internal/tool"
)

// caratOverDOALL lowers the bundled parallel program with doall at two
// cores and runs carat's guard validation over the product under cfg,
// through the pipeline a noelle-load invocation runs: the guard run
// executes the DOALL dispatches.
func caratOverDOALL(t *testing.T, cfg interp.ExecConfig) tool.Report {
	t.Helper()
	m, err := bench.ParallelProgram(512)
	if err != nil {
		t.Fatal(err)
	}
	copts := core.DefaultOptions()
	copts.Cores = 2
	topts := tool.DefaultOptions()
	topts.ExecConfig = cfg
	reps, _, err := tool.RunPipeline(context.Background(), core.New(m, copts), []string{"doall", "carat"}, topts)
	if err != nil {
		t.Fatal(err)
	}
	if reps[0].Metrics["lowered"] == 0 {
		t.Fatalf("doall lowered nothing: %s", reps[0].Summary)
	}
	rep := reps[1]
	if rep.Metrics["guard_run_failed"] != 0 {
		t.Fatalf("guard validation run failed: %v", rep.Detail)
	}
	return rep
}

// TestCaratRunHonoursExecConfig: the execution settings a tool run
// receives reach carat's guard run. Neither the engine nor the dispatch
// mode changes what the guards count; a parallel run reports its lanes;
// a Tracer collects the run's dispatch spans.
func TestCaratRunHonoursExecConfig(t *testing.T) {
	ref := caratOverDOALL(t, interp.ExecConfig{Eng: interp.EngineWalker, SeqDispatch: true})
	if ref.Metrics["guard_calls"] == 0 {
		t.Fatal("guard run made no guard calls")
	}
	for _, cfg := range []interp.ExecConfig{
		{Eng: interp.EngineWalker, DispatchWorkers: 2},
		{Eng: interp.EngineCompiled, SeqDispatch: true},
		{Eng: interp.EngineCompiled, DispatchWorkers: 2},
	} {
		rep := caratOverDOALL(t, cfg)
		for _, k := range []string{"guard_calls", "guard_failures"} {
			if rep.Metrics[k] != ref.Metrics[k] {
				t.Errorf("%+v: %s=%d, walker -seq %d", cfg, k, rep.Metrics[k], ref.Metrics[k])
			}
		}
		lanes := strings.Contains(strings.Join(rep.Detail, "\n"), "worker d1.w")
		if lanes == cfg.SeqDispatch {
			t.Errorf("%+v: worker lines %v in %q, want them only for a parallel run", cfg, lanes, rep.Detail)
		}
	}

	tr := obs.NewTracer()
	traced := caratOverDOALL(t, interp.ExecConfig{DispatchWorkers: 2, Tracer: tr})
	if traced.Metrics["guard_calls"] != ref.Metrics["guard_calls"] {
		t.Errorf("traced: guard_calls=%d, untraced %d", traced.Metrics["guard_calls"], ref.Metrics["guard_calls"])
	}
	if len(tr.DispatchSpans()) == 0 {
		t.Error("the Tracer recorded no dispatch spans of carat's run")
	}
}

package toolio

import (
	"flag"

	"noelle/internal/interp"
	"noelle/internal/obs"
)

// ExecFlags are the execution settings a command that runs modules
// registers as flags — -seq, a dispatch-worker cap, -engine, -trace and
// -metrics, and -queue-cap where asked for — parsed into one
// interp.ExecConfig.
type ExecFlags struct {
	cfg    interp.ExecConfig
	engine string
	// Trace is the -trace path ("" writes no trace file).
	Trace string
	// Metrics is -metrics: print the executions' span metrics.
	Metrics bool
}

// RegisterExecFlags registers the execution flags on fs. workersFlag
// names the dispatch-worker cap (noelle-bin's -workers; noelle-load's
// -workers sizes its PDG precompute pool, so there it is
// -dispatch-workers). withQueueCap registers -queue-cap, the run-time
// capacity override of the module's communication queues.
func RegisterExecFlags(fs *flag.FlagSet, workersFlag string, withQueueCap bool) *ExecFlags {
	f := &ExecFlags{}
	fs.BoolVar(&f.cfg.SeqDispatch, "seq", false, "run dispatched tasks sequentially (the parallel runtime's debugging fallback)")
	fs.IntVar(&f.cfg.DispatchWorkers, workersFlag, 0, "cap on simultaneously-running dispatch workers (0 = GOMAXPROCS)")
	if withQueueCap {
		fs.IntVar(&f.cfg.QueueCap, "queue-cap", 0, "override the capacity of the module's communication queues (0 = respect the module; shapes backpressure only, never results)")
	}
	fs.StringVar(&f.engine, "engine", "", "interpreter execution tier: walker|compiled (default: process default, see NOELLE_ENGINE)")
	fs.StringVar(&f.Trace, "trace", "", "export the module's executions as a Chrome trace-event JSON timeline (chrome://tracing, Perfetto)")
	fs.BoolVar(&f.Metrics, "metrics", false, "print the executions' span metrics (counts, totals, p50/p95/p99) to stderr")
	return f
}

// Config validates the parsed flags and the NOELLE_ENGINE environment
// variable and returns the settings, with a fresh Tracer when -trace or
// -metrics asked for one.
func (f *ExecFlags) Config() (interp.ExecConfig, error) {
	if err := interp.EngineEnvErr(); err != nil {
		return interp.ExecConfig{}, err
	}
	eng, err := interp.ParseEngine(f.engine)
	if err != nil {
		return interp.ExecConfig{}, err
	}
	cfg := f.cfg
	cfg.Eng = eng
	if f.Trace != "" || f.Metrics {
		cfg.Tracer = obs.NewTracer()
	}
	return cfg, nil
}

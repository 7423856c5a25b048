// Package noelle is the public facade of the NOELLE compilation layer: a
// Go reproduction of "NOELLE Offers Empowering LLVM Extensions" (CGO
// 2022). It re-exports the manager, the tool registry, and the entry
// points a custom tool needs; the implementation lives under internal/
// (see ARCHITECTURE.md for the system inventory and the architecture
// overview).
//
// A custom tool follows the paper's pattern — load the layer, then pull
// abstractions on demand:
//
//	m, _ := noelle.CompileC("prog", source)
//	n := noelle.Load(m, noelle.DefaultOptions())
//	pdg := n.FunctionPDG(m.FunctionByName("main"))
//	for _, ls := range n.HotLoops() {
//	    l := n.Loop(ls) // LS + LDG + aSCCDAG + IV + INV + RD
//	    ...
//	}
//
// The bundled custom tools (licm, dead, doall, helix, dswp, auto, carat,
// coos, prvj, timesq, perspective) register themselves behind the uniform
// Tool interface — doall, dswp and helix being the one
// loop-parallelization driver (auto) pinned to their technique's planner;
// list them or run a multi-stage pipeline that
// precomputes function PDGs in parallel and invalidates cached
// abstractions between transforming stages:
//
//	for _, t := range noelle.Tools() {
//	    fmt.Println(t.Name(), "-", t.Describe())
//	}
//	reports, err := noelle.RunPipeline(ctx, n, []string{"licm", "dead"},
//	    noelle.DefaultToolOptions())
//
// The manager is safe for concurrent use; n.PrecomputePDGs(ctx, workers)
// materializes every function PDG across a worker pool up front.
//
// Setting Options.CacheDir points the manager at a persistent
// content-addressed abstraction store (internal/abscache): function PDGs
// are keyed by the module's structural fingerprint, looked up on disk
// before being built, and persisted after a cold build, so a second load
// of the same program reconstructs every PDG without re-running the alias
// analyses. Inspect the store with the noelle-cache CLI.
package noelle

import (
	"context"

	"noelle/internal/core"
	"noelle/internal/interp"
	"noelle/internal/ir"
	"noelle/internal/minic"
	"noelle/internal/passes"
	"noelle/internal/tool"

	// Link the bundled custom tools into the facade's registry.
	_ "noelle/internal/tools"
)

// Noelle is the demand-driven abstraction manager (the paper's
// noelle-load layer).
type Noelle = core.Noelle

// Options configures the manager.
type Options = core.Options

// Module is a whole-program IR module.
type Module = ir.Module

// Tool is the uniform interface every registered custom tool implements.
type Tool = tool.Tool

// ToolOptions carries the per-invocation knobs shared by custom tools.
type ToolOptions = tool.Options

// Report is the uniform result a custom tool returns: a summary line,
// structured metrics, and the abstractions the tool requested.
type Report = tool.Report

// DefaultOptions mirrors the paper's evaluation setup (12 cores, 5%
// hotness threshold).
func DefaultOptions() Options { return core.DefaultOptions() }

// DefaultToolOptions mirrors the noelle-load flag defaults.
func DefaultToolOptions() ToolOptions { return tool.DefaultOptions() }

// Load loads the NOELLE layer over a module without computing anything;
// abstractions materialize on first request. Set opts.CacheDir to load
// warm from (and populate) a persistent abstraction store.
func Load(m *Module, opts Options) *Noelle { return core.New(m, opts) }

// Tools returns every registered custom tool, sorted by name.
func Tools() []Tool { return tool.Tools() }

// RunPipeline runs the named tools in sequence over one manager,
// precomputing function PDGs in parallel first (when
// opts.PrecomputeWorkers > 0), statically verifying the module at
// opts.VerifyTier after every transforming stage, and invalidating
// cached abstractions after each of those stages.
func RunPipeline(ctx context.Context, n *Noelle, names []string, opts ToolOptions) ([]Report, error) {
	reports, _, err := tool.RunPipeline(ctx, n, names, opts)
	return reports, err
}

// CompileC compiles mini-C source text to optimized IR (the substrate's
// clang -O2 equivalent).
func CompileC(name, src string) (*Module, error) {
	m, err := minic.Compile(name, src)
	if err != nil {
		return nil, err
	}
	passes.Optimize(m)
	return m, nil
}

// Run executes a module's @main under the interpreter (on its default
// execution tier — see internal/interp: the compiled fast path, or the
// walker when NOELLE_ENGINE=walker) and
// returns its exit code and output. Modules produced by the
// parallelizing tools contain noelle_dispatch calls whose task workers
// run concurrently on real cores.
func Run(m *Module) (int64, string, error) {
	it := interp.New(m)
	code, err := it.Run()
	return code, it.Output.String(), err
}

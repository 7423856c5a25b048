// Package tool defines the uniform API every NOELLE custom tool
// implements, plus the process-wide registry and the pipeline runner the
// noelle-load driver uses. This is the paper's central organizational
// claim made concrete: a custom tool is a small unit behind one shared
// interface, loaded over the demand-driven manager, and its resource
// usage (the Table 4 abstraction matrix) falls out of running it — not
// out of per-tool glue code.
//
// A tool package registers itself from init:
//
//	func init() { tool.Register(licmTool{}) }
//
// and the driver resolves it by name:
//
//	reports, err := tool.RunPipeline(ctx, n, []string{"licm", "dead"}, tool.DefaultOptions())
package tool

import (
	"context"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"

	"noelle/internal/core"
	"noelle/internal/interp"
	"noelle/internal/verify"
)

// Options carries the per-invocation knobs shared by every custom tool.
// Tools read only the fields they care about; unknown fields are ignored.
type Options struct {
	// Budget is the COOS callback budget, in cost-model cycles.
	Budget int64
	// Optimize enables a tool's optional optimization stage (the HELIX
	// SCD header-shrinking ablation toggle).
	Optimize bool
	// PrecomputeWorkers is the worker-pool size RunPipeline uses to
	// materialize function PDGs before the first tool runs (0 disables
	// the precompute stage).
	PrecomputeWorkers int
	// ExecutePlans makes the loop-parallelization driver (dswp, helix,
	// auto; doall always lowers) lower plans to executable form — task
	// functions communicating over the internal/queue runtime, launched
	// through noelle_dispatch — instead of stopping at the plan report.
	ExecutePlans bool
	// VerifyTier selects how deeply RunPipeline statically verifies the
	// module after each transforming stage: "quick" (structural + SSA,
	// the historical default, also selected by ""), "ssa" (+ extern
	// contracts), or "comm" (+ the concurrency-protocol linter over
	// lowered parallel plans). See internal/verify.
	VerifyTier string
	// ExecConfig is how a tool that executes the module runs it (carat's
	// guard validation): the engine, -seq, the dispatch-worker cap, the
	// queue-capacity override, and a Tracer the executions' spans land in
	// (noelle-load -trace/-metrics). Profiling and cost-attribution runs
	// are served by the compiled tier regardless; see internal/interp's
	// engine documentation.
	interp.ExecConfig
}

// DefaultOptions mirrors the historical noelle-load flag defaults.
func DefaultOptions() Options {
	return Options{Budget: 4000, Optimize: true}
}

// LoopRejection records why a parallelizer passed over one hot loop —
// the per-loop answer to "why wasn't this loop parallelized?" that
// noelle-load surfaces in tool detail lines, whether no plan was
// produced or none could be lowered to executable form.
type LoopRejection struct {
	Fn     string
	Header string
	Reason string
}

func (r LoopRejection) String() string {
	return fmt.Sprintf("@%s/%s: %s", r.Fn, r.Header, r.Reason)
}

// Report is the uniform result every custom tool returns: one summary
// line, structured metrics, optional per-item detail lines, and the
// abstractions the tool pulled from the manager while running.
type Report struct {
	// Tool is the registered name of the tool that produced the report.
	Tool string
	// Summary is a one-line human-readable account of what happened.
	Summary string
	// Metrics are the tool's structured counters (hoisted instructions,
	// removed functions, inserted guards, ...).
	Metrics map[string]int64
	// Detail lists optional per-loop/per-plan lines.
	Detail []string
	// Abstractions are the distinct abstractions the tool requested from
	// the demand-driven manager, sorted (one row of the Table 4 matrix).
	Abstractions []core.Abstraction
}

// String renders the report as "name: summary".
func (r Report) String() string {
	return r.Tool + ": " + r.Summary
}

// Fprint writes the report in the canonical noelle-load stderr layout:
// the summary line, indented detail lines, a metrics line when any
// metric was recorded, and the requested-abstractions line. The compile
// service's client (internal/serve) renders received reports through the
// same function, which is what makes "daemon reports byte-identical to a
// cold noelle-load run" checkable with a plain diff.
func (r Report) Fprint(w io.Writer) {
	fmt.Fprintf(w, "%s: %s\n", r.Tool, r.Summary)
	for _, d := range r.Detail {
		fmt.Fprintf(w, "  %s\n", d)
	}
	if len(r.Metrics) > 0 {
		fmt.Fprintf(w, "%s: metrics: %s\n", r.Tool, r.MetricsLine())
	}
	fmt.Fprintf(w, "%s: abstractions requested: %v\n", r.Tool, r.Abstractions)
}

// MetricsLine renders the metrics as "k1=v1 k2=v2" in sorted key order.
func (r Report) MetricsLine() string {
	keys := make([]string, 0, len(r.Metrics))
	for k := range r.Metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, 0, len(keys))
	for _, k := range keys {
		parts = append(parts, fmt.Sprintf("%s=%d", k, r.Metrics[k]))
	}
	return strings.Join(parts, " ")
}

// Tool is the interface every custom tool implements. Run must be safe to
// call on any well-formed module; a tool that mutates the IR reports
// Transforms() == true so the pipeline runner invalidates cached
// abstractions after it.
type Tool interface {
	// Name is the registry key (lower-case, the noelle-load -tool value).
	Name() string
	// Describe is a one-line description for listings.
	Describe() string
	// Transforms reports whether Run may mutate the module.
	Transforms() bool
	// Run executes the tool over the manager's module.
	Run(ctx context.Context, n *core.Noelle, opts Options) (Report, error)
}

// ConditionalTransformer is an optional Tool extension for tools whose
// Run mutates the module only under certain options (e.g. the
// pipelining parallelizers: planning is read-only, -exec-plans is not).
// When implemented, the pipeline runner consults it instead of the
// static Transforms(), so a plan-only stage does not pay module
// verification, abstraction invalidation, and a store flush for a
// module it never touched.
type ConditionalTransformer interface {
	TransformsWith(opts Options) bool
}

// TransformsWith resolves whether t may mutate the module under opts,
// consulting ConditionalTransformer when implemented. Callers that need
// to know up front whether a pipeline is read-only (the compile service
// decides between running on a shared warm manager and cloning the
// module) use this instead of the static Transforms().
func TransformsWith(t Tool, opts Options) bool {
	if ct, ok := t.(ConditionalTransformer); ok {
		return ct.TransformsWith(opts)
	}
	return t.Transforms()
}

var (
	regMu    sync.RWMutex
	registry = map[string]Tool{}
)

// Register adds t to the process-wide registry. Tool packages call it
// from init; registering two tools under one name is a programming error
// and panics.
func Register(t Tool) {
	name := t.Name()
	if name == "" {
		panic("tool: Register with empty name")
	}
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registry[name]; dup {
		panic("tool: duplicate registration of " + name)
	}
	registry[name] = t
}

// Lookup resolves a registered tool by name.
func Lookup(name string) (Tool, bool) {
	regMu.RLock()
	defer regMu.RUnlock()
	t, ok := registry[name]
	return t, ok
}

// Tools returns every registered tool, sorted by name.
func Tools() []Tool {
	regMu.RLock()
	out := make([]Tool, 0, len(registry))
	for _, t := range registry {
		out = append(out, t)
	}
	regMu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Name() < out[j].Name() })
	return out
}

// Names returns the sorted names of every registered tool.
func Names() []string {
	ts := Tools()
	out := make([]string, len(ts))
	for i, t := range ts {
		out[i] = t.Name()
	}
	return out
}

// Run executes one tool with request tracking: the manager's request log
// is reset before the tool runs, and the report comes back stamped with
// the tool's name and the abstractions it requested.
//
// Request tracking is per-manager, not per-goroutine: run tools
// sequentially over a given manager (as RunPipeline does). Concurrent
// Run calls on one manager are memory-safe but interleave their request
// logs, so the Abstractions attribution of both reports becomes
// meaningless; use one manager per concurrent run instead.
func Run(ctx context.Context, t Tool, n *core.Noelle, opts Options) (Report, error) {
	n.ResetRequests()
	rep, err := t.Run(ctx, n, opts)
	rep.Tool = t.Name()
	rep.Abstractions = n.Requested()
	if rep.Metrics == nil {
		rep.Metrics = map[string]int64{}
	}
	return rep, err
}

// VerifierStats aggregates the static verification work one RunPipeline
// invocation did: how many transforming stages were re-verified, how
// many function checks that added up to, and the per-tier finding
// counts (all zero on a pipeline that completed). noelle-load prints it
// as the report footer.
type VerifierStats struct {
	// Tier is the deepest tier each post-stage verification ran at.
	Tier verify.Tier
	// Stages counts the transforming stages that were verified.
	Stages int
	// Checked sums the functions examined across those verifications.
	Checked int
	// Findings counts violations per detecting tier (indexed by
	// verify.Tier; only indices up to Tier are ever populated).
	Findings [verify.TierComm + 1]int
}

// String renders the footer line, e.g.
// "static verifier: tier=comm stages=2 checked=34 findings: quick=0 ssa=0 comm=0".
func (s VerifierStats) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "static verifier: tier=%s stages=%d checked=%d findings:", s.Tier, s.Stages, s.Checked)
	for t := verify.TierQuick; t <= s.Tier; t++ {
		fmt.Fprintf(&b, " %s=%d", t, s.Findings[t])
	}
	return b.String()
}

func (s *VerifierStats) add(r *verify.Result) {
	s.Stages++
	s.Checked += r.Checked
	for t := verify.TierQuick; t <= s.Tier; t++ {
		s.Findings[t] += r.CountAt(t)
	}
}

// RunPipeline resolves names against the registry and runs the tools in
// sequence over one manager: a noelle-load invocation like
// `-tools licm,dead,doall`. Before the first stage it materializes every
// function PDG across a worker pool (when opts.PrecomputeWorkers > 0);
// after every transforming stage it statically verifies the module at
// opts.VerifyTier (the returned error wraps *verify.Error on failure)
// and invalidates the manager's cached abstractions, so later stages
// re-derive them against the mutated IR. It returns the reports of the
// stages that ran and the aggregated verifier stats, stopping at the
// first stage error, verification failure, or context cancellation.
//
// When the manager carries a persistent abstraction store, the
// precompute stage and every rebuild populate it, and pending store
// records are flushed after each transforming stage and at pipeline end.
// A transformed module has a new fingerprint, so the records of the
// input are never requested by later stages (noelle-cache gc sweeps
// them), and a rerun of the same pipeline on the same input hits every
// stage's records.
func RunPipeline(ctx context.Context, n *core.Noelle, names []string, opts Options) ([]Report, VerifierStats, error) {
	return RunPipelineStream(ctx, n, names, opts, nil)
}

// RunPipelineStream is RunPipeline with per-stage delivery: when emit is
// non-nil it is called with each stage's report as soon as the stage
// finishes running (before post-stage verification), in pipeline order.
// The compile service streams reports to its client through this; the
// returned slice still accumulates every emitted report.
//
// Concurrency note for shared stores: multiple pipelines may run
// concurrently over distinct managers attached (SetStore) to
// one abscache.Store — the daemon does exactly that. Every store
// operation the pipeline triggers (warm Gets during precompute, Puts
// after cold builds, and the post-stage / end-of-pipeline Flush calls)
// is serialized by the store's own mutex, and each Flush commits one
// immutable segment and the index by rename, so interleaved flushes from
// concurrent pipelines cannot tear records or the index
// (regression-tested in internal/tools with -race).
func RunPipelineStream(ctx context.Context, n *core.Noelle, names []string, opts Options, emit func(Report)) ([]Report, VerifierStats, error) {
	tier, err := verify.ParseTier(opts.VerifyTier)
	if err != nil {
		return nil, VerifierStats{}, fmt.Errorf("tool: %w", err)
	}
	stats := VerifierStats{Tier: tier}
	if err := core.CheckCores(n.Opts.Cores); err != nil {
		return nil, stats, fmt.Errorf("tool: %w", err)
	}
	tools := make([]Tool, 0, len(names))
	for _, name := range names {
		t, ok := Lookup(name)
		if !ok {
			return nil, stats, fmt.Errorf("tool: unknown tool %q (have %s)", name, strings.Join(Names(), ", "))
		}
		tools = append(tools, t)
	}
	if opts.PrecomputeWorkers > 0 {
		if err := n.PrecomputePDGs(ctx, opts.PrecomputeWorkers); err != nil {
			return nil, stats, err
		}
	}
	var reports []Report
	for _, t := range tools {
		if err := ctx.Err(); err != nil {
			return reports, stats, err
		}
		rep, err := Run(ctx, t, n, opts)
		reports = append(reports, rep)
		if emit != nil {
			emit(rep)
		}
		if err != nil {
			return reports, stats, fmt.Errorf("%s: %w", t.Name(), err)
		}
		if TransformsWith(t, opts) {
			vres := verify.Module(n.Mod, tier)
			stats.add(vres)
			if err := vres.Err(); err != nil {
				return reports, stats, fmt.Errorf("%s: transformed module rejected: %w", t.Name(), err)
			}
			n.InvalidateModule()
			if err := n.FlushStore(); err != nil {
				return reports, stats, fmt.Errorf("%s: flushing abstraction store: %w", t.Name(), err)
			}
		}
	}
	if err := n.FlushStore(); err != nil {
		return reports, stats, fmt.Errorf("tool: flushing abstraction store: %w", err)
	}
	return reports, stats, nil
}

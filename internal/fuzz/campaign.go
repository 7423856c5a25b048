// Package fuzz is the differential fuzzing and adversarial campaign
// harness over the minic/IR surface. A seeded generator (gen.go) emits
// deterministic random programs whose hot loops are plausible
// DOALL/DSWP/HELIX candidates; the campaign runner sweeps every
// parallelization technique plus the auto orchestrator across a fixed
// matrix of seeds × cores × queue capacities, and judges every cell
// with the repo's full oracle stack:
//
//   - irtext round-trip: print → parse → print must be byte-identical
//     and keep the structural module fingerprint stable;
//   - engine differential: walker vs compiled tier agree on every
//     observable (interptest) for the original and every lowering;
//   - dispatch differential: the parallel execution of a lowered module
//     is byte-identical to its -seq fallback (output, exit code, Steps,
//     Cycles, memory fingerprint, comm counters);
//   - semantic preservation: the lowered module's sequential output
//     matches the original program's;
//   - static verification: every lowering must pass the comm-tier
//     protocol linter before it is allowed to execute.
//
// Any divergence, panic, verifier rejection, or deadlock (watchdog
// timeout with a goroutine dump) fails the cell; the failing program is
// minimized by block-dropping and array-shrinking and written out as a
// replayable .nir reproducer whose header names the seed and matrix
// cell. Stress, fault-injection, and miscompile-injection legs live in
// legs.go; cmd/noelle-fuzz is the CLI.
package fuzz

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"noelle/internal/interp"
	"noelle/internal/interp/interptest"
	"noelle/internal/ir"
	"noelle/internal/irtext"

	// Link the registered custom tools (doall, dswp, helix, auto, ...)
	// into every campaign process.
	_ "noelle/internal/tools"
)

// Matrix is the fixed sweep every generated program is judged across.
// Both execution engines always run — the walker-vs-compiled diff is an
// oracle, not a knob — so the effective matrix is
// techniques × cores × queue caps × {walker, compiled}.
type Matrix struct {
	Techniques []string
	Cores      []int
	QueueCaps  []int
}

// DefaultMatrix sweeps every lowering technique plus the auto
// orchestrator across two core counts and two run-time queue capacities
// (0 keeps each lowering's own choice; a small cap forces backpressure).
func DefaultMatrix() Matrix {
	return Matrix{
		Techniques: []string{"doall", "dswp", "helix", "auto"},
		Cores:      []int{2, 4},
		QueueCaps:  []int{0, 8},
	}
}

// Cell is one matrix coordinate for one seed. The lowering depends on
// Technique and Cores only; QCap is the run-time queue capacity
// (interp.ExecConfig.QueueCap) the cell's executions use.
type Cell struct {
	Technique string
	Cores     int
	QCap      int
}

func (cl Cell) String() string {
	return fmt.Sprintf("tech=%s cores=%d qcap=%d", cl.Technique, cl.Cores, cl.QCap)
}

// Config shapes a campaign.
type Config struct {
	// Gen sizes the generated programs.
	Gen GenConfig
	// Matrix is the per-seed sweep (zero value = DefaultMatrix).
	Matrix Matrix
	// MinHotness is the hot-loop threshold handed to the manager. The
	// campaign default is 0: every loop is a candidate, which maximizes
	// lowering coverage on small generated programs.
	MinHotness float64
	// Timeout is the watchdog budget per guarded operation (one
	// pipeline run or one module execution). A cell that exceeds it is
	// reported as a suspected deadlock with a full goroutine dump.
	Timeout time.Duration
	// OutDir receives minimized .nir reproducers ("" disables writing).
	OutDir string
	// Parallel runs seeds across a worker pool (<=1 = sequential).
	Parallel int
	// NoMinimize skips reproducer minimization (used by tests that
	// assert on the un-shrunk failure).
	NoMinimize bool
	// Verbose, when non-nil, receives per-seed progress lines.
	Verbose io.Writer
}

func (c Config) withDefaults() Config {
	c.Gen = c.Gen.withDefaults()
	if len(c.Matrix.Techniques) == 0 {
		c.Matrix = DefaultMatrix()
	}
	if len(c.Matrix.Cores) == 0 {
		c.Matrix.Cores = DefaultMatrix().Cores
	}
	if len(c.Matrix.QueueCaps) == 0 {
		c.Matrix.QueueCaps = []int{0}
	}
	if c.Timeout <= 0 {
		c.Timeout = 30 * time.Second
	}
	return c
}

// Failure is one oracle violation, with everything needed to replay it.
type Failure struct {
	Seed   int64
	Leg    string
	Cell   string // "" for program-level failures (round-trip, baseline)
	Reason string
	// Repro is the path of the minimized .nir reproducer ("" when no
	// OutDir is configured).
	Repro string
	// Replay is the noelle-fuzz invocation that regenerates and
	// re-judges the failing program deterministically.
	Replay string
}

func (f Failure) String() string {
	s := fmt.Sprintf("seed %d", f.Seed)
	if f.Cell != "" {
		s += " [" + f.Cell + "]"
	}
	s += ": " + firstLine(f.Reason)
	if f.Repro != "" {
		s += "\n  reproducer: " + f.Repro
	}
	if f.Replay != "" {
		s += "\n  replay: " + f.Replay
	}
	return s
}

// Stats aggregates one campaign run.
type Stats struct {
	Programs   int // generated programs judged
	Cells      int // matrix cells evaluated
	Lowered    int // cells whose technique lowered at least one loop
	NoLowering int // cells where the technique (correctly) stood down
	Executions int // differential executions performed
	Failures   []Failure
}

// Merge folds other into s.
func (s *Stats) Merge(other Stats) {
	s.Programs += other.Programs
	s.Cells += other.Cells
	s.Lowered += other.Lowered
	s.NoLowering += other.NoLowering
	s.Executions += other.Executions
	s.Failures = append(s.Failures, other.Failures...)
}

// Summary renders the one-line campaign account.
func (s Stats) Summary() string {
	return fmt.Sprintf("programs=%d cells=%d lowered=%d no-lowering=%d executions=%d failures=%d",
		s.Programs, s.Cells, s.Lowered, s.NoLowering, s.Executions, len(s.Failures))
}

// Campaign runs the oracle-gated matrix over generated programs.
type Campaign struct {
	cfg Config
}

// New builds a campaign with defaults applied.
func New(cfg Config) *Campaign { return &Campaign{cfg: cfg.withDefaults()} }

// Cells enumerates the matrix.
func (c *Campaign) Cells() []Cell {
	var cells []Cell
	for _, t := range c.cfg.Matrix.Techniques {
		for _, cores := range c.cfg.Matrix.Cores {
			for _, qc := range c.cfg.Matrix.QueueCaps {
				cells = append(cells, Cell{Technique: t, Cores: cores, QCap: qc})
			}
		}
	}
	return cells
}

// RunSeeds judges every seed across the full matrix, optionally across
// a worker pool, and returns the aggregated stats.
func (c *Campaign) RunSeeds(seeds []int64) Stats {
	if c.cfg.Parallel <= 1 || len(seeds) <= 1 {
		var st Stats
		for _, s := range seeds {
			st.Merge(c.RunSeed(s))
		}
		return st
	}
	var (
		mu   sync.Mutex
		st   Stats
		wg   sync.WaitGroup
		next = make(chan int64)
	)
	for w := 0; w < c.cfg.Parallel; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for s := range next {
				one := c.RunSeed(s)
				mu.Lock()
				st.Merge(one)
				mu.Unlock()
			}
		}()
	}
	for _, s := range seeds {
		next <- s
	}
	close(next)
	wg.Wait()
	return st
}

// RunSeed judges one seed: the program-level oracles (compile,
// round-trip, engine baseline), then every matrix cell.
func (c *Campaign) RunSeed(seed int64) Stats {
	var st Stats
	p := Generate(seed, c.cfg.Gen)
	st.Programs++
	c.logf("seed %d: %d blocks (%s)", seed, len(p.ActiveBlocks()), blockKinds(p))
	if reason := c.CheckProgram(p); reason != "" {
		st.Failures = append(st.Failures, c.fail(p, "campaign", nil, reason))
		return st // the program itself is broken; cells would only echo it
	}
	for _, cell := range c.Cells() {
		cell := cell
		st.Cells++
		reason, lowered, execs := c.CheckCell(p, cell)
		st.Executions += execs
		if lowered {
			st.Lowered++
		} else if reason == "" {
			st.NoLowering++
		}
		if reason != "" {
			st.Failures = append(st.Failures, c.fail(p, "campaign", &cell, reason))
		}
	}
	return st
}

// CheckProgram runs the seed-level oracles on p and returns the first
// violation ("" when clean): the program must compile to verifier-clean
// IR, survive a print→parse→print round trip byte-identically with a
// stable structural fingerprint, and execute identically on both
// engine tiers.
func (c *Campaign) CheckProgram(p *Program) string {
	m, err := p.Compile()
	if err != nil {
		return err.Error()
	}
	if reason := RoundTrip(m); reason != "" {
		return reason
	}
	var (
		walker interptest.Result
		diffs  []string
	)
	gerr := guard("baseline execution", c.cfg.Timeout, func() error {
		var err error
		walker, _, diffs, err = interptest.TiersAgree(m, interptest.Config{})
		return err
	})
	if gerr != nil {
		return gerr.Error()
	}
	if walker.Err != nil {
		return fmt.Sprintf("original program errors: %v", walker.Err)
	}
	if len(diffs) > 0 {
		return "engine tiers disagree on the original program: " + strings.Join(diffs, "; ")
	}
	return ""
}

// RoundTrip checks the irtext round-trip property on one module: the
// printed text must re-parse, re-print byte-identically, and keep its
// structural fingerprint. The campaign asserts it for every generated
// program; a focused unit test pins it independently.
func RoundTrip(m *ir.Module) string {
	text1 := ir.Print(m)
	m2, err := irtext.Parse(text1)
	if err != nil {
		return fmt.Sprintf("printed module does not re-parse: %v", err)
	}
	if text2 := ir.Print(m2); text2 != text1 {
		return "print → parse → print is not byte-identical"
	}
	if ir.ModuleFingerprint(m) != ir.ModuleFingerprint(m2) {
		return "structural module fingerprint unstable across print → parse"
	}
	return ""
}

// CheckCell lowers p with one technique at one matrix coordinate and
// runs the full differential oracle stack on the result. It returns the
// first violation ("" when clean), whether the technique lowered
// anything, and how many differential executions ran.
func (c *Campaign) CheckCell(p *Program, cell Cell) (reason string, lowered bool, execs int) {
	m, err := p.Compile()
	if err != nil {
		return err.Error(), false, 0
	}
	base, err := interptest.RunModule(m, interp.EngineCompiled, interptest.Config{})
	if err != nil {
		return err.Error(), false, 0
	}

	work, lowered, err := c.lower(m, cell.Technique, cell.Cores)
	if err != nil {
		return err.Error(), false, 0
	}
	if !lowered {
		return "", false, 0 // nothing lowered: a planning-only cell
	}

	// Execute the lowering on both engines, sequential and parallel.
	type key struct {
		eng interp.Engine
		seq bool
	}
	results := map[key]interptest.Result{}
	for _, eng := range []interp.Engine{interp.EngineWalker, interp.EngineCompiled} {
		for _, seq := range []bool{true, false} {
			cfg := interptest.Config{ExecConfig: interp.ExecConfig{
				SeqDispatch:     seq,
				DispatchWorkers: cell.Cores,
				QueueCap:        cell.QCap,
			}}
			var r interptest.Result
			op := fmt.Sprintf("execution %s engine=%s seq=%v", cell, eng, seq)
			gerr := guard(op, c.cfg.Timeout, func() error {
				var err error
				r, err = interptest.RunModule(work, eng, cfg)
				return err
			})
			execs++
			if gerr != nil {
				return gerr.Error(), lowered, execs
			}
			if r.Err != nil {
				return fmt.Sprintf("%s errored: %v", op, r.Err), lowered, execs
			}
			results[key{eng, seq}] = r
		}
	}

	// Oracle 1: the lowered module preserves the original semantics.
	seqC := results[key{interp.EngineCompiled, true}]
	if seqC.Output != base.Output || seqC.Value != base.Value {
		return fmt.Sprintf("lowering changed program semantics: original (exit %d, %q), lowered -seq (exit %d, %q)",
			base.Value, base.Output, seqC.Value, seqC.Output), lowered, execs
	}
	// Oracle 2: parallel dispatch is byte-identical to the -seq
	// fallback, per engine.
	for _, eng := range []interp.Engine{interp.EngineWalker, interp.EngineCompiled} {
		if diffs := interptest.Compare("seq", results[key{eng, true}], "par", results[key{eng, false}]); len(diffs) > 0 {
			return fmt.Sprintf("engine=%s parallel diverged from -seq: %s", eng, strings.Join(diffs, "; ")), lowered, execs
		}
	}
	// Oracle 3: the engines agree on the lowering, in both modes.
	for _, seq := range []bool{true, false} {
		if diffs := interptest.Compare("walker", results[key{interp.EngineWalker, seq}], "compiled", results[key{interp.EngineCompiled, seq}]); len(diffs) > 0 {
			return fmt.Sprintf("engine tiers disagree on the lowering (seq=%v): %s", seq, strings.Join(diffs, "; ")), lowered, execs
		}
	}
	return "", lowered, execs
}

// fail minimizes the failing program, writes its reproducer, and
// returns the filled-in Failure record.
func (c *Campaign) fail(p *Program, leg string, cell *Cell, reason string) Failure {
	min := p
	if !c.cfg.NoMinimize {
		min = Minimize(p, func(q *Program) bool {
			if cell == nil {
				return c.CheckProgram(q) != ""
			}
			r, _, _ := c.CheckCell(q, *cell)
			return r != ""
		})
	}
	f := Failure{Seed: p.Seed, Leg: leg, Reason: reason}
	if cell != nil {
		f.Cell = cell.String()
	}
	f.Replay = replayCommand(min, leg, cell)
	f.Repro = c.writeRepro(min, leg, cell, reason)
	c.logf("FAILURE %s", f)
	return f
}

// writeRepro dumps the minimized program's IR as a commented .nir
// reproducer under OutDir and returns its path.
func (c *Campaign) writeRepro(p *Program, leg string, cell *Cell, reason string) string {
	if c.cfg.OutDir == "" {
		return ""
	}
	if err := os.MkdirAll(c.cfg.OutDir, 0o755); err != nil {
		c.logf("cannot create reproducer dir: %v", err)
		return ""
	}
	name := fmt.Sprintf("seed%d", p.Seed)
	if cell != nil {
		name += fmt.Sprintf("_%s_c%d_q%d", cell.Technique, cell.Cores, cell.QCap)
	}
	path := filepath.Join(c.cfg.OutDir, name+".nir")
	var sb strings.Builder
	sb.WriteString("; noelle-fuzz reproducer (minimized)\n")
	fmt.Fprintf(&sb, "; leg=%s seed=%d blocks=%v arrays=%d arraylen=%d active=%v\n",
		leg, p.Seed, p.Cfg.Blocks, p.Cfg.Arrays, p.Cfg.ArrayLen, p.ActiveBlocks())
	if cell != nil {
		fmt.Fprintf(&sb, "; cell: %s (engines: walker+compiled)\n", cell)
	}
	fmt.Fprintf(&sb, "; reason: %s\n", firstLine(reason))
	fmt.Fprintf(&sb, "; replay: %s\n", replayCommand(p, leg, cell))
	if m, err := p.Compile(); err == nil {
		sb.WriteString(ir.Print(m))
	} else {
		fmt.Fprintf(&sb, "; (program no longer compiles: %v)\n", err)
	}
	if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
		c.logf("cannot write reproducer: %v", err)
		return ""
	}
	return path
}

// replayCommand renders the noelle-fuzz invocation that regenerates the
// failing program from its seed and re-judges the failing coordinate.
func replayCommand(p *Program, leg string, cell *Cell) string {
	cmd := fmt.Sprintf("go run ./cmd/noelle-fuzz -leg %s -seed-base %d -seeds 1 -blocks %d -arrays %d -arraylen %d",
		leg, p.Seed, p.Cfg.Blocks, p.Cfg.Arrays, p.Cfg.ArrayLen)
	if cell != nil {
		cmd += fmt.Sprintf(" -matrix %q", fmt.Sprintf("tech=%s;cores=%d;qcap=%d", cell.Technique, cell.Cores, cell.QCap))
	}
	return cmd
}

func (c *Campaign) logf(format string, args ...any) {
	if c.cfg.Verbose != nil {
		fmt.Fprintf(c.cfg.Verbose, format+"\n", args...)
	}
}

func blockKinds(p *Program) string {
	var kinds []string
	for _, i := range p.ActiveBlocks() {
		kinds = append(kinds, string(p.Blocks[i].Kind))
	}
	return strings.Join(kinds, ",")
}

func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}

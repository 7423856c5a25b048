package fuzz

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"noelle/internal/core"
	"noelle/internal/interp"
	"noelle/internal/interp/interptest"
	"noelle/internal/ir"
	"noelle/internal/tool"
	"noelle/internal/verify"
)

// lower clones m and runs one technique's pipeline over the clone at
// the given core count. Returns the (possibly transformed) clone and
// whether anything was lowered. A queue capacity is no coordinate of the
// lowering: it is set at run time (interp.ExecConfig.QueueCap).
func (c *Campaign) lower(m *ir.Module, tech string, cores int) (*ir.Module, bool, error) {
	work := ir.CloneModule(m)
	opts := core.DefaultOptions()
	opts.Cores = cores
	opts.MinHotness = c.cfg.MinHotness
	n := core.New(work, opts)
	topts := tool.DefaultOptions()
	topts.ExecutePlans = true
	topts.VerifyTier = "comm"
	var perr error
	gerr := guard(fmt.Sprintf("pipeline tech=%s cores=%d", tech, cores), c.cfg.Timeout, func() error {
		_, _, perr = tool.RunPipeline(context.Background(), n, []string{tech}, topts)
		return nil
	})
	if gerr != nil {
		return work, false, gerr
	}
	if perr != nil {
		// Includes *verify.Error: a lowering the comm linter rejected
		// never reaches execution, and is exactly a campaign finding.
		return work, false, fmt.Errorf("pipeline failed: %w", perr)
	}
	return work, ir.ModuleFingerprint(work) != ir.ModuleFingerprint(m), nil
}

// Stress is the concurrency leg: for each seed, the program is lowered
// by the auto orchestrator and then executed by many goroutines at
// once, every run a fresh dispatch over its own memory image, engines
// alternating. Each concurrent result must be byte-identical to the
// module's own -seq fallback. Run it under -race: the point is to shake
// the shared image, queue runtime, and compiled-code cache with
// overlapping dispatches, not to measure anything.
func (c *Campaign) Stress(seeds []int64, goroutines, rounds int) Stats {
	var st Stats
	if goroutines <= 0 {
		goroutines = 4
	}
	if rounds <= 0 {
		rounds = 2
	}
	for _, seed := range seeds {
		p := Generate(seed, c.cfg.Gen)
		st.Programs++
		m, err := p.Compile()
		if err != nil {
			st.Failures = append(st.Failures, c.fail(p, "stress", nil, err.Error()))
			continue
		}
		cores := maxInt(c.cfg.Matrix.Cores)
		work, lowered, err := c.lower(m, "auto", cores)
		if err != nil {
			st.Failures = append(st.Failures, c.fail(p, "stress", nil, err.Error()))
			continue
		}
		if !lowered {
			st.NoLowering++
			continue
		}
		st.Lowered++
		execCfg := func(seq bool) interptest.Config {
			return interptest.Config{ExecConfig: interp.ExecConfig{SeqDispatch: seq, DispatchWorkers: cores}}
		}
		base, err := interptest.RunModule(work, interp.EngineCompiled, execCfg(true))
		if err != nil || base.Err != nil {
			st.Failures = append(st.Failures, c.fail(p, "stress", nil, fmt.Sprintf("sequential baseline failed: %v / %v", err, base.Err)))
			continue
		}
		var (
			mu       sync.Mutex
			problems []string
		)
		gerr := guard(fmt.Sprintf("stress seed=%d goroutines=%d rounds=%d", seed, goroutines, rounds),
			c.cfg.Timeout*2, func() error {
				var wg sync.WaitGroup
				for g := 0; g < goroutines; g++ {
					g := g
					wg.Add(1)
					go func() {
						defer wg.Done()
						eng := interp.EngineWalker
						if g%2 == 0 {
							eng = interp.EngineCompiled
						}
						for r := 0; r < rounds; r++ {
							res, err := interptest.RunModule(work, eng, execCfg(false))
							if err != nil {
								mu.Lock()
								problems = append(problems, err.Error())
								mu.Unlock()
								return
							}
							if diffs := interptest.Compare("seq-baseline", base, fmt.Sprintf("concurrent-par[g%d,r%d,%s]", g, r, eng), res); len(diffs) > 0 {
								mu.Lock()
								problems = append(problems, strings.Join(diffs, "; "))
								mu.Unlock()
								return
							}
						}
					}()
				}
				wg.Wait()
				return nil
			})
		st.Executions += goroutines * rounds
		if gerr != nil {
			st.Failures = append(st.Failures, c.fail(p, "stress", nil, gerr.Error()))
			continue
		}
		if len(problems) > 0 {
			st.Failures = append(st.Failures, c.fail(p, "stress", nil,
				"concurrent dispatches diverged from the sequential baseline: "+strings.Join(problems, " | ")))
		}
	}
	return st
}

// errInjectedFault is the fault-injection leg's worker poison: a queue
// push that fails on its first call, simulating a worker dying mid-
// pipeline. The abort must propagate deterministically — every parked
// worker woken, the dispatch barrier reached, the root cause surfaced —
// instead of deadlocking or panicking.
var errInjectedFault = errors.New("fuzz: injected worker fault")

func failPush(*interp.Interp, []uint64) (uint64, error) { return 0, errInjectedFault }

// poisonedPushes replaces both forms of the queue push.
var poisonedPushes = map[string]interp.Extern{
	interp.ExternQueuePush:  failPush,
	interp.ExternQueuePushN: failPush,
}

// Faults is the fault-injection leg. For each seed it picks the first
// technique that lowers the program, then drives two failure modes
// through both engines:
//
//   - MaxSteps exhaustion mid-pipeline: the run is capped at 3/4 of the
//     lowering's own step count, so the budget runs out while dispatched
//     workers are live. Every run must terminate with ErrStepLimit, and
//     the two engines must agree byte-for-byte on the capped sequential
//     run (the compiled tier's step accounting contract holds at budget
//     boundaries).
//
//   - Aborted workers: the queue-push extern is replaced with one that
//     fails immediately, so the first communicating worker dies. Every
//     run must terminate with an error naming the injected fault (or
//     the abort it caused) — a hang here is a teardown deadlock, the
//     exact bug class the abort protocol exists to prevent.
func (c *Campaign) Faults(seeds []int64) Stats {
	var st Stats
	for _, seed := range seeds {
		p := Generate(seed, c.cfg.Gen)
		st.Programs++
		m, err := p.Compile()
		if err != nil {
			st.Failures = append(st.Failures, c.fail(p, "faults", nil, err.Error()))
			continue
		}
		var work *ir.Module
		var tech string
		for _, t := range []string{"dswp", "helix", "auto", "doall"} {
			w, lowered, err := c.lower(m, t, 2)
			if err == nil && lowered {
				work, tech = w, t
				break
			}
		}
		if work == nil {
			st.NoLowering++
			continue
		}
		st.Lowered++
		cell := Cell{Technique: tech, Cores: 2, QCap: 0}

		clean, err := interptest.RunModule(work, interp.EngineCompiled, interptest.Config{ExecConfig: interp.ExecConfig{SeqDispatch: true, DispatchWorkers: 2}})
		if err != nil || clean.Err != nil {
			st.Failures = append(st.Failures, c.fail(p, "faults", &cell, fmt.Sprintf("clean run failed: %v / %v", err, clean.Err)))
			continue
		}

		// Leg (a): step-budget exhaustion mid-pipeline.
		cap64 := clean.Steps * 3 / 4
		if cap64 < 1 {
			cap64 = 1
		}
		capped := map[bool]map[interp.Engine]interptest.Result{true: {}, false: {}}
		failed := false
		for _, seq := range []bool{true, false} {
			for _, eng := range []interp.Engine{interp.EngineWalker, interp.EngineCompiled} {
				cfg := interptest.Config{ExecConfig: interp.ExecConfig{SeqDispatch: seq, DispatchWorkers: 2}, MaxSteps: cap64}
				var r interptest.Result
				op := fmt.Sprintf("step-exhaustion %s engine=%s seq=%v", cell, eng, seq)
				gerr := guard(op, c.cfg.Timeout, func() error {
					var err error
					r, err = interptest.RunModule(work, eng, cfg)
					return err
				})
				st.Executions++
				if gerr != nil {
					st.Failures = append(st.Failures, c.fail(p, "faults", &cell, gerr.Error()))
					failed = true
					break
				}
				if !errors.Is(r.Err, interp.ErrStepLimit) {
					st.Failures = append(st.Failures, c.fail(p, "faults", &cell,
						fmt.Sprintf("%s: want ErrStepLimit, got %v", op, r.Err)))
					failed = true
					break
				}
				capped[seq][eng] = r
			}
			if failed {
				break
			}
		}
		if failed {
			continue
		}
		if diffs := interptest.Compare("walker", capped[true][interp.EngineWalker], "compiled", capped[true][interp.EngineCompiled]); len(diffs) > 0 {
			st.Failures = append(st.Failures, c.fail(p, "faults", &cell,
				"engines disagree on the step-capped sequential run: "+strings.Join(diffs, "; ")))
			continue
		}

		// Leg (b): aborted worker — only meaningful when the lowering
		// actually communicates.
		if clean.Comm[1] == 0 { // no queue pushes
			continue
		}
		for _, seq := range []bool{true, false} {
			for _, eng := range []interp.Engine{interp.EngineWalker, interp.EngineCompiled} {
				cfg := interptest.Config{ExecConfig: interp.ExecConfig{SeqDispatch: seq, DispatchWorkers: 2}, Externs: poisonedPushes}
				var r interptest.Result
				op := fmt.Sprintf("worker-abort %s engine=%s seq=%v", cell, eng, seq)
				gerr := guard(op, c.cfg.Timeout, func() error {
					var err error
					r, err = interptest.RunModule(work, eng, cfg)
					return err
				})
				st.Executions++
				if gerr != nil {
					st.Failures = append(st.Failures, c.fail(p, "faults", &cell, gerr.Error()))
					break
				}
				if r.Err == nil {
					st.Failures = append(st.Failures, c.fail(p, "faults", &cell,
						fmt.Sprintf("%s: injected push fault vanished (run succeeded)", op)))
					break
				}
				if !strings.Contains(r.Err.Error(), errInjectedFault.Error()) &&
					!strings.Contains(r.Err.Error(), "abort") {
					st.Failures = append(st.Failures, c.fail(p, "faults", &cell,
						fmt.Sprintf("%s: error does not surface the injected fault: %v", op, r.Err)))
					break
				}
			}
		}
	}
	return st
}

// InjectMiscompiles is the harness's own acceptance check: it seeds each
// of the known miscompiles (Miscompiles, the table the verify mutation
// suite runs too) into a real lowering of its technique of a generated
// program and asserts the campaign's static oracle names it. It returns
// one reported Failure per miscompile caught (with its reproducer written
// like any other); the error names the first miscompile that found no
// lowering to mutate or that the oracle missed — a miss means the harness
// has lost its detection power and the caller must fail loudly.
func (c *Campaign) InjectMiscompiles(maxSeeds int) ([]Failure, error) {
	if maxSeeds <= 0 {
		maxSeeds = 50
	}
	var caught []Failure
	for _, mc := range Miscompiles() {
		f, err := c.inject(mc, maxSeeds)
		if err != nil {
			return caught, err
		}
		caught = append(caught, f)
	}
	return caught, nil
}

func (c *Campaign) inject(mc Miscompile, maxSeeds int) (Failure, error) {
	for seed := int64(1); seed <= int64(maxSeeds); seed++ {
		p := Generate(seed, c.cfg.Gen)
		m, err := p.Compile()
		if err != nil {
			continue
		}
		work, lowered, err := c.lower(m, mc.Technique, 2)
		if err != nil || !lowered {
			continue
		}
		// The unmutated lowering must be comm-clean, or the injected
		// finding would not be attributable to the mutation.
		if verify.Module(work, verify.TierComm).Err() != nil || !mc.Apply(work) {
			continue
		}
		res := verify.Module(work, verify.TierComm)
		for _, want := range mc.Want {
			named := false
			for _, f := range res.Findings {
				named = named || (f.Tier == verify.TierComm && strings.Contains(f.Detail, want))
			}
			if !named {
				return Failure{}, fmt.Errorf("fuzz: injected miscompile %s (seed %d) was not named %q by the comm tier: %v",
					mc.Name, seed, want, res.Err())
			}
		}
		cell := Cell{Technique: mc.Technique, Cores: 2, QCap: 0}
		reason := fmt.Sprintf("injected miscompile %s caught by the static comm oracle: %v", mc.Name, res.Err())
		f := Failure{Seed: seed, Leg: "inject", Cell: cell.String(), Reason: reason}
		f.Replay = replayCommand(p, "inject", &cell)
		f.Repro = c.writeMutatedRepro(work, p, &cell, mc.Name, reason)
		return f, nil
	}
	return Failure{}, fmt.Errorf("fuzz: no seed in 1..%d produced a %s lowering with a site for %s", maxSeeds, mc.Technique, mc.Name)
}

// writeMutatedRepro dumps an already-mutated module (the inject leg's
// reproducer is the lowered IR itself, not the source program).
func (c *Campaign) writeMutatedRepro(work *ir.Module, p *Program, cell *Cell, name, reason string) string {
	if c.cfg.OutDir == "" {
		return ""
	}
	if err := os.MkdirAll(c.cfg.OutDir, 0o755); err != nil {
		c.logf("cannot create reproducer dir: %v", err)
		return ""
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "; noelle-fuzz reproducer (injected miscompile: %s)\n", name)
	fmt.Fprintf(&sb, "; leg=inject seed=%d cell: %s\n", p.Seed, cell)
	fmt.Fprintf(&sb, "; reason: %s\n", firstLine(reason))
	fmt.Fprintf(&sb, "; replay: %s\n", replayCommand(p, "inject", cell))
	sb.WriteString(ir.Print(work))
	path := filepath.Join(c.cfg.OutDir, fmt.Sprintf("seed%d_inject_%s_%s_c%d_q%d.nir",
		p.Seed, name, cell.Technique, cell.Cores, cell.QCap))
	if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
		c.logf("cannot write reproducer: %v", err)
		return ""
	}
	return path
}

func maxInt(xs []int) int {
	best := 2
	for _, x := range xs {
		if x > best {
			best = x
		}
	}
	return best
}

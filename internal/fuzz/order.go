package fuzz

import (
	"fmt"
	"strings"

	"noelle/internal/interp"
	"noelle/internal/interp/interptest"
	"noelle/internal/ir"
	"noelle/internal/verify"
)

// ReversedDOALL is the worker order (interp.Interp.WorkerOrder) that runs
// the workers of every dispatch whose protocol record says doall in
// reverse, and the number of those dispatches in m. Every other dispatch
// keeps its order: a HELIX worker waits on a ticket its predecessor
// fires, and DSWP stages on their producers' queues.
func ReversedDOALL(m *ir.Module) (order func(task *ir.Function, n int64) []int64, doall int) {
	tasks := map[*ir.Function]bool{}
	for _, l := range verify.Lowerings(m) {
		if l.Err == nil && l.Proto.Technique == verify.DOALL {
			doall++
			for _, f := range l.Tasks {
				tasks[f] = true
			}
		}
	}
	return func(task *ir.Function, n int64) []int64 {
		if !tasks[task] {
			return nil
		}
		order := make([]int64, n)
		for i := range order {
			order[i] = n - 1 - int64(i)
		}
		return order
	}, doall
}

// Order is the order leg. A DOALL lowering claims its workers are
// independent, so each seed, lowered by each of the matrix's techniques
// that is doall or auto at each of its core counts, must run alike under
// -seq in order and with the doall dispatches' workers reversed: same
// output, exit value and global fingerprint, and so the same counters. A
// cell with no doall dispatch counts as not lowered.
func (c *Campaign) Order(seeds []int64) Stats {
	var cells []Cell
	for _, cell := range c.Cells() {
		// A queue capacity does not change a -seq run.
		if cell.QCap == c.cfg.Matrix.QueueCaps[0] && (cell.Technique == "doall" || cell.Technique == "auto") {
			cells = append(cells, cell)
		}
	}
	var st Stats
	for _, seed := range seeds {
		st.Programs++
		st.Merge(c.judgeCells(Generate(seed, c.cfg.Gen), "order", cells, c.checkOrder))
	}
	return st
}

// checkOrder runs the order oracle on p lowered as cell says. It returns
// the violation ("" when clean), whether the lowering has a doall
// dispatch, and the runs made.
func (c *Campaign) checkOrder(p *Program, cell Cell) (reason string, lowered bool, execs int) {
	m, err := p.Compile()
	if err != nil {
		return err.Error(), false, 0
	}
	work, _, err := c.lower(m, cell.Technique, cell.Cores)
	if err != nil {
		return err.Error(), false, 0
	}
	order, doall := ReversedDOALL(work)
	if doall == 0 {
		return "", false, 0
	}
	// RunModule fails only for a module with no @main: both runs or none.
	cfg := interptest.Config{ExecConfig: interp.ExecConfig{SeqDispatch: true}}
	var in, rev interptest.Result
	if err := guard("order "+cell.String(), c.cfg.Timeout, func() (err error) {
		in, _ = interptest.RunModule(work, interp.EngineCompiled, cfg)
		cfg.WorkerOrder = order
		rev, err = interptest.RunModule(work, interp.EngineCompiled, cfg)
		return err
	}); err != nil {
		return err.Error(), true, 2
	}
	if diffs := interptest.Compare("in order", in, "reversed", rev); len(diffs) > 0 {
		return fmt.Sprintf("reversing the workers of %d doall dispatches changed the run: %s", doall, strings.Join(diffs, "; ")), true, 2
	}
	return "", true, 2
}

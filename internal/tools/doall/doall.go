// Package doall is the NOELLE-based DOALL parallelizing custom tool
// (paper Section 3): it selects hot loops whose aSCCDAG contains only
// Independent nodes, induction-variable cycles, and reductions, then
// rewrites each into a task function dispatched across workers. Live-ins
// flow through an Environment, reductions get per-worker private
// accumulators folded after the dispatch, and the induction variables are
// re-seeded per worker (the IVS mechanism).
package doall

import (
	"fmt"

	"noelle/internal/core"
	"noelle/internal/env"
	"noelle/internal/ir"
	"noelle/internal/loopbuilder"
	"noelle/internal/loops"
	"noelle/internal/verify"
)

// Plan records a DOALL-eligible loop, ready to lower. Planning is
// read-only: the split between PlanLoop and Lower is what lets the
// driver score a DOALL plan against the other techniques' plans before
// committing to any rewriting.
type Plan struct {
	LS   *loops.LS
	Loop *loops.Loop

	n *core.Noelle
}

// PlanLoop checks ls for DOALL legality and canonical form; a nil plan
// comes with the rejection reason. The module is not mutated.
func PlanLoop(n *core.Noelle, ls *loops.LS) (*Plan, error) {
	l := n.Loop(ls)
	if err := Eligible(l); err != nil {
		return nil, err
	}
	return &Plan{LS: ls, Loop: l, n: n}, nil
}

// Lower rewrites the planned loop into a dispatched task named taskName,
// invalidating the manager's cached abstractions on success.
func (p *Plan) Lower(taskName string) error {
	// The mechanisms the rewrite is built from.
	p.n.Use(core.AbsENV)
	p.n.Use(core.AbsTask)
	p.n.Use(core.AbsIVS)
	p.n.Use(core.AbsLB)
	if err := transform(p.n, p.Loop, taskName); err != nil {
		return err
	}
	p.n.InvalidateModule()
	return nil
}

// Eligible checks DOALL legality plus the canonical form the code
// generator handles (loopbuilder.Outlinable, with per-worker IV seeds).
func Eligible(l *loops.Loop) error {
	if !l.IsDOALL() {
		return fmt.Errorf("sequential SCCs present")
	}
	if err := loopbuilder.Outlinable(l, true); err != nil {
		return err
	}
	ls := l.LS
	// Every header phi must be an IV or a reduction.
	for _, phi := range ls.HeaderPhis() {
		if l.IVs.IVForPhi(phi) == nil && l.Reductions.ForPhi(phi) == nil {
			return fmt.Errorf("header phi %s is neither IV nor reduction", phi.Ident())
		}
	}
	// All IVs need constant steps (per-worker reseeding is affine).
	for _, iv := range l.IVs.IVs {
		if iv.StepConst == nil {
			return fmt.Errorf("IV %s has non-constant step", iv.Phi.Ident())
		}
		if len(ivUpdates(iv)) != 1 {
			return fmt.Errorf("IV %s has multiple updates", iv.Phi.Ident())
		}
	}
	// Live-outs must be reconstructible after the parallel loop.
	for _, out := range l.LiveOut {
		if !isReconstructibleLiveOut(l, out) {
			return fmt.Errorf("live-out %s is not IV-final or reduction", out.Ident())
		}
	}
	return nil
}

func ivUpdates(iv *loops.IV) []*ir.Instr {
	var ups []*ir.Instr
	for _, in := range iv.SCC {
		if in.Opcode == ir.OpAdd || in.Opcode == ir.OpSub {
			ups = append(ups, in)
		}
	}
	return ups
}

func isReconstructibleLiveOut(l *loops.Loop, out *ir.Instr) bool {
	if out.Opcode == ir.OpPhi {
		return l.IVs.IVForPhi(out) != nil || l.Reductions.ForPhi(out) != nil
	}
	for _, r := range l.Reductions.Reductions {
		for _, in := range r.SCC {
			if in == out {
				return true
			}
		}
	}
	for _, iv := range l.IVs.IVs {
		for _, in := range iv.SCC {
			if in == out {
				return true
			}
		}
	}
	return false
}

// transform rewrites the loop into a dispatched task.
func transform(n *core.Noelle, l *loops.Loop, taskName string) error {
	cores := n.Opts.Cores
	o := loopbuilder.BeginOutline(n.Mod, l.LS)
	tc, err := loopbuilder.EmitTripCount(o.Bld, l.IVs.GoverningIV())
	if err != nil {
		return err
	}

	// Environment: the live-ins and the trip count in slots, then one
	// private cell per worker for every reduction, from redBase on.
	eb := env.NewBuilder()
	for _, v := range l.LiveIn {
		eb.AddLiveIn(v)
	}
	eb.AddLiveIn(tc)
	o.PackEnv(eb, len(l.Reductions.Reductions)*cores, "doall.env")
	redBase := o.Env.NumSlots()

	task := o.NewTask(taskName)
	buildTaskBody(l, task, tc, redBase, cores)
	o.Dispatch(task.Fn, ir.ConstInt(int64(cores)), &verify.Protocol{Technique: verify.DOALL})

	// Reduction folds and IV finals reconstruct the live-outs.
	finals := map[*ir.Instr]ir.Value{} // in-loop def -> post-loop value
	for i, r := range l.Reductions.Reductions {
		acc := ir.Value(r.Start)
		for w := 0; w < cores; w++ {
			part := o.Reload(redBase+i*cores+w, r.Phi.Ty)
			acc = o.Bld.CreateBinOp(r.Op, acc, part, fmt.Sprintf("red.fold%d", w))
		}
		for _, in := range r.SCC {
			finals[in] = acc
		}
	}
	for _, iv := range l.IVs.IVs {
		fin := o.IVFinal(iv, tc)
		for _, in := range iv.SCC {
			finals[in] = fin
		}
	}
	o.Finish(finals)
	return nil
}

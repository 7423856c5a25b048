package helix

import (
	"fmt"
	"sort"
	"strconv"

	"noelle/internal/analysis"
	"noelle/internal/env"
	"noelle/internal/interp"
	"noelle/internal/ir"
	"noelle/internal/loopbuilder"
	"noelle/internal/loops"
	"noelle/internal/verify"
)

// The executable lowering dispatches one task invocation per iteration
// (worker w is iteration w): IV values are re-derived affinely from the
// worker id, the loop body is cloned with the back-edge cut, and each
// sequential segment is bracketed by a ticket signal —
// noelle_signal_wait(sig, w) before its first effect,
// noelle_signal_fire(sig, w+1) after its last — so segment instances
// execute in iteration order across concurrently-running workers while
// everything outside the segments overlaps. Register-carried sequential
// state (a non-IV header phi) becomes a signal-guarded environment cell:
// the phi reads the cell inside the guarded region and the latch-bound
// update writes it back before the fire, turning the SSA recurrence into
// the memory-carried form the signals already order. The sequential
// dispatch fallback replays iterations in order, where every wait is
// already satisfied — byte-identical output either way.

// segLower is one sequential segment's lowering shape.
type segLower struct {
	id   int
	phis []*ir.Instr // non-IV header phis carried by this segment
	// anchor is the original instruction whose clone the wait precedes:
	// the earliest (in execution order) of the segment's non-phi members
	// and the in-loop users of its phis. nil for phi-only segments with
	// no users (the wait then lands before the latch's terminator).
	anchor *ir.Instr
	// last is the original instruction whose clone the fire follows.
	last *ir.Instr
}

// chainOrder assigns a linear execution-order index to every instruction
// in a block that dominates the latch: those blocks form a dominance
// chain, so (chain position, instruction index) is the order in which
// the once-per-iteration instructions execute.
func chainOrder(ls *loops.LS, dom *analysis.DomTree) map[*ir.Instr]int {
	latch := ls.Latches[0]
	var chain []*ir.Block
	for _, b := range ls.Blocks() {
		if dom.Dominates(b, latch) {
			chain = append(chain, b)
		}
	}
	sort.Slice(chain, func(i, j int) bool {
		return chain[i] != chain[j] && dom.Dominates(chain[i], chain[j])
	})
	ord := map[*ir.Instr]int{}
	n := 0
	for _, b := range chain {
		for _, in := range b.Instrs {
			ord[in] = n
			n++
		}
	}
	return ord
}

// planSegments computes each segment's lowering shape under the linear
// order ord. CanLower has already ensured every relevant instruction is
// ordered (its block dominates the latch).
func planSegments(p *Plan, ord map[*ir.Instr]int) []*segLower {
	ls := p.LS
	segs := make([]*segLower, p.NumSeq)
	for i := range segs {
		segs[i] = &segLower{id: i}
	}
	extend := func(sl *segLower, in *ir.Instr) {
		if sl.anchor == nil || ord[in] < ord[sl.anchor] {
			sl.anchor = in
		}
		if sl.last == nil || ord[in] > ord[sl.last] {
			sl.last = in
		}
	}
	for in, s := range p.SegmentOf {
		if in.Opcode == ir.OpPhi && in.Parent == ls.Header {
			segs[s].phis = append(segs[s].phis, in)
			continue
		}
		extend(segs[s], in)
	}
	for _, sl := range segs {
		sort.Slice(sl.phis, func(i, j int) bool { return ord[sl.phis[i]] < ord[sl.phis[j]] })
		for _, phi := range sl.phis {
			ls.Instrs(func(u *ir.Instr) bool {
				for _, op := range u.Ops {
					if op == ir.Value(phi) {
						extend(sl, u)
						break
					}
				}
				return true
			})
		}
	}
	return segs
}

// ivSCCOf returns the IV whose update cycle contains in, or nil.
func ivSCCOf(l *loops.Loop, in *ir.Instr) *loops.IV {
	for _, iv := range l.IVs.IVs {
		for _, x := range iv.SCC {
			if x == in {
				return iv
			}
		}
	}
	return nil
}

// carriedPhi reports whether phi is segment-carried state (a non-IV
// header phi the lowering routes through a guarded cell).
func carriedPhi(p *Plan, phi *ir.Instr) bool {
	if phi.Opcode != ir.OpPhi || phi.Parent != p.LS.Header {
		return false
	}
	_, ok := p.SegmentOf[phi]
	return ok
}

// publishOuts lists the live-outs published from the last iteration:
// everything that is neither affinely reconstructible (IV state) nor a
// carried phi (whose guarded cell already holds the final value).
func publishOuts(p *Plan) []*ir.Instr {
	l := p.Loop
	var outs []*ir.Instr
	for _, out := range l.LiveOut {
		if l.IVs.IVForPhi(out) != nil || ivSCCOf(l, out) != nil || carriedPhi(p, out) {
			continue
		}
		outs = append(outs, out)
	}
	return outs
}

// CanLower checks whether a plan can be lowered to per-iteration
// dispatch: canonical loop shape, affinely re-derivable IVs, sequential
// state expressible as guarded cells, and communication points that
// execute exactly once per iteration.
func CanLower(p *Plan) error {
	ls, l := p.LS, p.Loop
	// Every iteration re-derives its IV values from the worker id.
	if err := loopbuilder.Outlinable(l, true); err != nil {
		return err
	}
	giv := l.IVs.GoverningIV()
	// One dispatch worker per iteration: a statically-known trip count
	// beyond the dispatcher's fan-out cap cannot lower (a dynamic trip
	// count that large surfaces as a deterministic dispatch error at
	// run time instead).
	if tc, known := l.IVs.TripCount(); known && tc > 1<<20 {
		return fmt.Errorf("trip count %d exceeds the dispatch fan-out cap (2^20)", tc)
	}
	// The header executes tc+1 times originally (the final pass runs
	// the exit check) but tc times per-iteration; instructions whose
	// extra execution is observable cannot live there.
	hterm := ls.Header.Terminator()
	for _, in := range ls.Header.Instrs {
		if in.Opcode == ir.OpPhi || in == hterm || in == giv.ExitCmp {
			continue
		}
		if in.Opcode == ir.OpStore || in.Opcode == ir.OpCall {
			return fmt.Errorf("header %s has side effects on the loop's final exit pass", in.Ident())
		}
	}
	// The exit comparison is dropped (the dispatch fan-out replaces it),
	// so nothing else may consume it.
	term := ls.Header.Terminator()
	var inErr error
	ls.Instrs(func(u *ir.Instr) bool {
		if u == term {
			return true
		}
		for _, op := range u.Ops {
			if op == ir.Value(giv.ExitCmp) {
				inErr = fmt.Errorf("exit comparison %s has uses besides the header branch", giv.ExitCmp.Ident())
				return false
			}
		}
		return true
	})
	if inErr != nil {
		return inErr
	}
	for _, iv := range l.IVs.IVs {
		if iv.StepConst == nil {
			return fmt.Errorf("IV %s has non-constant step", iv.Phi.Ident())
		}
	}
	// Header phis: replicable IV state or segment-carried cells.
	for _, phi := range ls.HeaderPhis() {
		if l.IVs.IVForPhi(phi) != nil || carriedPhi(p, phi) {
			continue
		}
		return fmt.Errorf("header phi %s is neither IV nor sequential-segment state (reductions need privatization)", phi.Ident())
	}
	dom := analysis.NewDomTree(ls.Fn)
	latch := ls.Latches[0]
	// Segment members execute exactly once per iteration and leave room
	// for the wait/fire brackets. Program order, so the rejection names
	// the same instruction on every run.
	ls.Instrs(func(in *ir.Instr) bool {
		s, owned := p.SegmentOf[in]
		if !owned || (in.Opcode == ir.OpPhi && in.Parent == ls.Header) {
			return true
		}
		switch {
		case in.Opcode == ir.OpPhi:
			inErr = fmt.Errorf("segment %d state merges through phi %s", s, in.Ident())
		case in.IsTerminator() || in == giv.ExitCmp:
			inErr = fmt.Errorf("segment %d contains loop control %s", s, in.Ident())
		case !dom.Dominates(in.Parent, latch):
			inErr = fmt.Errorf("segment %d instruction %s is conditionally executed", s, in.Ident())
		}
		return inErr == nil
	})
	if inErr != nil {
		return inErr
	}
	// Users of carried phis sit inside the wait's reach.
	for _, phi := range ls.HeaderPhis() {
		if !carriedPhi(p, phi) {
			continue
		}
		var bad *ir.Instr
		ls.Instrs(func(u *ir.Instr) bool {
			for _, op := range u.Ops {
				if op != ir.Value(phi) {
					continue
				}
				// Terminator users would become the segment's last
				// member, leaving no room to place the fire after them.
				if u.Opcode == ir.OpPhi || u.IsTerminator() || !dom.Dominates(u.Parent, latch) {
					bad = u
					return false
				}
			}
			return true
		})
		if bad != nil {
			return fmt.Errorf("user %s of carried phi %s cannot be guarded", bad.Ident(), phi.Ident())
		}
	}
	// Live-outs: affine IV state, carried cells, or last-iteration
	// publishes of unconditionally-computed values.
	for _, out := range l.LiveOut {
		if iv := ivSCCOf(l, out); iv != nil && l.IVs.IVForPhi(out) == nil {
			// Only the phi and the full update feeding it equal
			// start + tc*step at the exit; an intermediate update of a
			// multi-instruction step cycle does not.
			if ir.Value(out) != ls.LatchIncoming(iv.Phi) {
				return fmt.Errorf("live-out %s is an intermediate IV update", out.Ident())
			}
		}
		if l.IVs.IVForPhi(out) != nil || ivSCCOf(l, out) != nil || carriedPhi(p, out) {
			continue
		}
		if out.Opcode == ir.OpPhi && out.Parent == ls.Header {
			return fmt.Errorf("live-out header phi %s is not reconstructible", out.Ident())
		}
		if out.Parent == ls.Header {
			// The original exit observes the header's final (tc+1-th)
			// pass; the last-iteration publish would ship the tc-1 value.
			return fmt.Errorf("live-out %s is recomputed by the header's exit pass", out.Ident())
		}
		if !dom.Dominates(out.Parent, latch) {
			return fmt.Errorf("live-out %s is conditionally computed", out.Ident())
		}
	}
	return nil
}

// transform rewrites the planned loop into a per-iteration dispatched
// task with signal-guarded sequential segments.
func transform(p *Plan, taskName string) error {
	ls, l := p.LS, p.Loop
	m := p.n.Mod

	i64 := ir.I64Type
	screate := m.DeclareFunction(interp.ExternSignalCreate, ir.FuncOf(i64, i64))
	swait := m.DeclareFunction(interp.ExternSignalWait, ir.FuncOf(ir.VoidType, i64, i64))
	sfire := m.DeclareFunction(interp.ExternSignalFire, ir.FuncOf(ir.VoidType, i64, i64))
	o := loopbuilder.BeginOutline(m, ls, taskName)

	// ---- pre-header: trip count, signals, environment ----
	tc, err := loopbuilder.EmitTripCount(o.Bld, l.IVs.GoverningIV())
	if err != nil {
		return err
	}
	sigs := make([]ir.Value, p.NumSeq)
	for s := range sigs {
		sig := o.Bld.CreateCall(screate, []ir.Value{ir.ConstInt(0)}, fmt.Sprintf("sig%d", s))
		o.Tag(sig, verify.MDSignal, strconv.Itoa(s))
		sigs[s] = sig
	}

	segs := planSegments(p, chainOrder(ls, analysis.NewDomTree(ls.Fn)))
	var carried []*ir.Instr
	for _, sl := range segs {
		carried = append(carried, sl.phis...)
	}

	eb := env.NewBuilder()
	for _, v := range l.LiveIn {
		eb.AddLiveIn(v)
	}
	for _, s := range sigs {
		eb.AddLiveIn(s)
	}
	for _, phi := range carried {
		eb.AddLiveOut(phi) // the guarded carried-state cell
	}
	for _, out := range l.LiveOut {
		eb.AddLiveOut(out)
	}
	o.PackEnv(eb, 0, "helix.env")
	// Seed the carried cells with the loop-entry values.
	for _, phi := range carried {
		o.Store(o.Env.SlotOf(phi).Index, ls.EntryIncoming(phi))
	}

	// ---- the per-iteration task, one dispatched worker per iteration ----
	task := o.NewTask(taskName, verify.KindHelixTask)
	task.Fn.SetMD(verify.MDSegments, strconv.Itoa(p.NumSeq))
	buildIterTask(p, task, segs, sigs, swait, sfire)
	o.Dispatch(task.Fn, tc)

	// ---- live-out reconstruction ----
	finals := map[*ir.Instr]ir.Value{}
	for _, out := range l.LiveOut {
		if iv := ivSCCOf(l, out); iv != nil {
			finals[out] = o.IVFinal(iv, tc)
			continue
		}
		// Carried cells and publish cells both end up as plain loads.
		finals[out] = o.Reload(o.Env.SlotOf(out).Index, out.Ty)
	}
	o.Finish(finals)
	return nil
}

// buildIterTask fills the task function executing exactly one iteration.
func buildIterTask(p *Plan, task *env.Task, segs []*segLower, sigs []ir.Value, swait, sfire *ir.Function) {
	ls, l := p.LS, p.Loop
	header := ls.Header
	giv := l.IVs.GoverningIV()
	// Signal handles travel as ordinary live-ins.
	b := loopbuilder.NewBody(task, ls)
	bld := b.Bld
	slotOf := task.Env.SlotOf

	// Iteration identity and affine IV values.
	w := ir.Value(task.WorkerID)
	wplus1 := bld.CreateBinOp(ir.OpAdd, w, ir.ConstInt(1), "w1")
	for _, iv := range l.IVs.IVs {
		b.Subst(iv.Phi, b.SeedIV(iv, w))
	}

	// Clone the body, dropping the loop-control scaffolding the dispatch
	// replaces (header phis, the exit comparison, the header branch).
	b.Clone(func(in *ir.Instr) bool {
		if in.Opcode == ir.OpPhi && in.Parent == header {
			return false
		}
		return in != giv.ExitCmp && in != header.Terminator()
	})
	// The header clone falls through into the body (or straight to done
	// for single-block loops, where header == latch).
	hdrNext := b.Done
	for _, succ := range header.Successors() {
		if ls.Contains(succ) && succ != header {
			hdrNext = b.Block(succ)
		}
	}
	bld.SetInsertionBlock(b.Block(header))
	bld.CreateBr(hdrNext)

	// Signal waits + carried-state loads, before each segment's earliest
	// effect.
	latchTerm := b.Block(ls.Latches[0]).Terminator()
	for _, sl := range segs {
		anchor := latchTerm
		if sl.anchor != nil {
			anchor = b.Instr(sl.anchor)
		}
		bld.SetInsertionBefore(anchor)
		bld.CreateCall(swait, []ir.Value{b.Map(sigs[sl.id]), w}, "")
		for _, phi := range sl.phis {
			raw := bld.CreateLoad(task.EnvSlotAddr(bld, slotOf(phi)), "carried")
			b.Subst(phi, env.FromBits(bld, raw, phi.Ty))
		}
	}

	// Carried-state write-backs + signal fires, after each segment's last
	// effect.
	for _, sl := range segs {
		next := latchTerm
		if sl.last != nil {
			lastClone := b.Instr(sl.last)
			blk := lastClone.Parent
			next = blk.Instrs[blk.IndexOf(lastClone)+1]
		}
		bld.SetInsertionBefore(next)
		for _, phi := range sl.phis {
			b.Publish(slotOf(phi), b.Map(ls.LatchIncoming(phi)))
		}
		bld.CreateCall(sfire, []ir.Value{b.Map(sigs[sl.id]), ir.Value(wplus1)}, "")
	}

	b.Wire()
	// The back edge becomes the iteration's exit to done.
	for i, tb := range latchTerm.Blocks {
		if tb == b.Block(header) {
			latchTerm.Blocks[i] = b.Done
		}
	}

	// done: the last iteration publishes the surviving live-outs.
	bld.SetInsertionBlock(b.Done)
	pubs := publishOuts(p)
	if len(pubs) == 0 {
		bld.CreateRet(nil)
		return
	}
	isLast := bld.CreateCmp(ir.OpEq, wplus1, task.NumWorkers, "islast")
	pub := task.Fn.NewBlock("publish")
	retb := task.Fn.NewBlock("ret")
	bld.CreateCondBr(isLast, pub, retb)
	bld.SetInsertionBlock(pub)
	for _, out := range pubs {
		b.Publish(slotOf(out), b.Map(out))
	}
	bld.CreateBr(retb)
	bld.SetInsertionBlock(retb)
	bld.CreateRet(nil)
}

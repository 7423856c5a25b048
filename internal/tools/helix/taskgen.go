package helix

import (
	"fmt"

	"noelle/internal/analysis"
	"noelle/internal/env"
	"noelle/internal/interp"
	"noelle/internal/ir"
	"noelle/internal/loopbuilder"
	"noelle/internal/loops"
	"noelle/internal/passes"
	"noelle/internal/pdg"
	"noelle/internal/verify"
)

// The executable lowering dispatches one task invocation per block of B
// consecutive iterations: worker w is block w, iterations [w*B,
// min(w*B+B, tc)). Inside the task the loop is distributed, along the
// aSCCDAG's topological order, into phase loops over the block: the
// parallel instructions that depend on no sequential segment, then
// segment 0 as a loop of its own between one noelle_signal_wait(sig0, w)
// and one noelle_signal_fire(sig0, w+1), then the parallel instructions
// downstream of it, then segment 1, and so on. Segment instances so run
// in iteration order across concurrently-running blocks — the ticket
// advances once per block, not once per iteration — while the parallel
// phases of different blocks overlap.
//
// Distribution is legal because the aSCCDAG closes every loop-carried
// dependence into one SCC: an edge between SCCs is intra-iteration and
// forward in TopoOrder, so running all of an earlier phase's iterations
// before a later phase's reorders no dependent pair. Every phase loop
// clones the loop control and what it needs of the Loop's clonable set; an
// SSA value one phase computes and a later one reads travels through a
// task-local buffer indexed by the iteration's offset in the block; a
// carried header phi is a real phi of its segment's loop, loaded from its
// environment cell once after the wait and stored back once before the
// fire; a header phi nothing in the loop reads (it only remembers the
// latest value of an expression) is a real phi of a parallel phase, and
// the last block alone publishes it. The sequential dispatch fallback
// runs the blocks in order, where every wait is already satisfied —
// byte-identical output either way.
//
// Block size. B = ceil(tc / (cores*blocksPerCore)) clamped to [1,
// maxBlock], computed in the pre-header from the run-time trip count, so
// a loop dispatches at most cores*blocksPerCore blocks until tc outgrows
// cores*blocksPerCore*maxBlock. Few, large blocks win on this runtime: a
// block's first wait is where a lane can park, and a parked lane wakes up
// in step with the lane that fired, so the next block waits again. The
// benchmark's helix_pipe (bench.PipelineProgram(65536), hot loop only,
// 2-vCPU reference host, compiled engine, --seconds 4, three to four
// runs per setting, run_ms as a share of the same run's orig_run_ms of
// 13.4–14.6 ms): 4 blocks 0.90–0.96, 8 blocks (blocksPerCore 4)
// 0.89–0.95, 16 blocks 0.87–0.92, 32 blocks 1.11–1.15. Four per core
// keeps a 4-core plan at 16. maxBlock sizes the crossing-value buffers
// (maxBlock+1 cells of frame address space each; only touched pages are
// ever backed); padding them by a page so that successive blocks' buffers
// fell in different slots of the 8-slot page cache the interpreter had
// then read 0.87–0.92 and was left out as not resolved from the unpadded
// runs.
const (
	blocksPerCore = 4
	maxBlock      = 8192
)

// blockSize is B for a trip count of tc; emitBlockSize is the same
// formula in IR.
func blockSize(tc int64, cores int) int64 {
	per := int64(cores) * blocksPerCore
	return min(max((tc+per-1)/per, 1), maxBlock)
}

func emitBlockSize(bld *ir.Builder, tc ir.Value, cores int) ir.Value {
	per := int64(cores) * blocksPerCore
	up := bld.CreateBinOp(ir.OpAdd, tc, ir.ConstInt(per-1), "")
	raw := bld.CreateBinOp(ir.OpDiv, up, ir.ConstInt(per), "")
	small := bld.CreateCmp(ir.OpLt, raw, ir.ConstInt(1), "")
	atLeast1 := bld.CreateSelect(small, ir.ConstInt(1), raw, "")
	big := bld.CreateCmp(ir.OpGt, atLeast1, ir.ConstInt(maxBlock), "")
	return bld.CreateSelect(big, ir.ConstInt(maxBlock), atLeast1, "blk")
}

// phasing distributes the loop's instructions over the task's phase
// loops. Positions are in execution order: 2s+1 is sequential segment s,
// the even position 2j the parallel phase that follows segments 0..j-1.
// Replicated loop control has no position: every phase clones what it
// needs of it.
type phasing struct {
	// replicated is the part of the Loop's clonable set that is closed
	// over its own inputs (an IV-derived product of a loop-invariant load
	// is clonable, the load is not: both get a position).
	replicated map[*ir.Instr]bool
	pos        map[*ir.Instr]int
	// populated marks the positions owning at least one instruction.
	populated map[int]bool
	// branches are the data-dependent branches; a phase clones one only
	// when it owns something the branch decides about.
	branches []*branch
	// cross lists, in program order, the values a later phase reads;
	// readers gives the positions reading each.
	cross   []*ir.Instr
	readers map[*ir.Instr]map[int]bool
}

// branch is a conditional branch the phases cannot replicate from the
// IVs: its condition is computed by some phase. A phase owning an
// instruction under it, or a phi at its merge point, clones it (reading
// the condition through a buffer if an earlier phase computed it); any
// other phase jumps straight to the merge point.
type branch struct {
	term  *ir.Instr
	merge *ir.Block          // immediate post-dominator of the branch's block
	under map[*ir.Block]bool // blocks the branch decides about (merge excluded)
	// steers marks the positions whose loop clones the branch.
	steers map[int]bool
}

// runs reports whether position q gets a loop: every segment does (its
// wait and fire keep the ticket moving), a parallel phase only when it
// owns something.
func (ph *phasing) runs(q int) bool { return q%2 == 1 || ph.populated[q] }

// own reports whether phase q runs in itself (terminators are steering,
// cloned on demand, never owned).
func (ph *phasing) own(in *ir.Instr, q int) bool {
	at, ok := ph.pos[in]
	return ok && at == q && !in.IsTerminator()
}

// deps calls fn for every ordering constraint between positioned
// instructions: the loop's dependence edges, plus branch -> phi for the
// phis at a data-dependent branch's merge point, whose value the branch
// picks without the PDG saying so (control dependence is per block, and
// the merge block does not depend on the branch).
func (ph *phasing) deps(l *loops.Loop, fn func(from, to *ir.Instr, carried bool) bool) {
	more := true
	l.DG.Edges(func(e *pdg.Edge) bool {
		more = fn(e.From, e.To, e.LoopCarried)
		return more
	})
	for _, br := range ph.branches {
		if br.merge == nil {
			continue // canLower refuses the loop
		}
		for _, phi := range br.merge.Phis() {
			if more {
				more = fn(br.term, phi, false)
			}
		}
	}
}

// phases places every non-replicated instruction: a segment member at
// its segment, anything else at the first parallel phase after everything
// it depends on. Planning is read-only and a plan is lowered before the
// next loop is planned, so the answer is computed once per plan.
func (p *Plan) phases() *phasing {
	if p.ph != nil {
		return p.ph
	}
	ls, l := p.LS, p.Loop
	ph := &phasing{
		replicated: map[*ir.Instr]bool{}, pos: map[*ir.Instr]int{},
		populated: map[int]bool{}, readers: map[*ir.Instr]map[int]bool{},
	}
	ls.Instrs(func(in *ir.Instr) bool {
		ph.replicated[in] = l.Clonable(in)
		return true
	})
	for changed := true; changed; {
		changed = false
		ls.Instrs(func(in *ir.Instr) bool {
			for _, op := range in.Ops {
				if d, ok := op.(*ir.Instr); ok && ph.replicated[in] && ls.ContainsInstr(d) && !ph.replicated[d] {
					ph.replicated[in], changed = false, true
				}
			}
			return true
		})
	}
	pdt := analysis.NewPostDomTree(ls.Fn)
	ls.Instrs(func(in *ir.Instr) bool {
		if ph.replicated[in] {
			return true
		}
		ph.pos[in] = 0
		if s, seq := p.SegmentOf[in]; seq {
			ph.pos[in] = 2*s + 1
		}
		if in.Opcode == ir.OpCondBr {
			br := &branch{term: in, merge: pdt.IDom[in.Parent], under: map[*ir.Block]bool{}, steers: map[int]bool{}}
			var walk func(b *ir.Block)
			walk = func(b *ir.Block) {
				if b != br.merge && !br.under[b] && ls.Contains(b) {
					br.under[b] = true
					for _, succ := range b.Successors() {
						walk(succ)
					}
				}
			}
			for _, succ := range in.Parent.Successors() {
				walk(succ)
			}
			ph.branches = append(ph.branches, br)
		}
		return true
	})
	for changed := true; changed; {
		changed = false
		raise := func(in *ir.Instr, need int) {
			if at, ok := ph.pos[in]; ok && at%2 == 0 && at < need {
				ph.pos[in] = need
				changed = true
			}
		}
		ph.deps(l, func(from, to *ir.Instr, _ bool) bool {
			if f, ok := ph.pos[from]; ok {
				raise(to, f+f%2)
			}
			return true
		})
		// An inner loop runs whole in one phase (PlanLoop put one that
		// touches a segment into it; this moves a parallel one as a unit).
		for _, inner := range ls.Nat.Childs {
			top := 0
			inner.Instrs(func(in *ir.Instr) bool {
				top = max(top, ph.pos[in])
				return true
			})
			inner.Instrs(func(in *ir.Instr) bool {
				raise(in, top)
				return true
			})
		}
	}
	read := func(d ir.Value, q int) {
		in, _ := d.(*ir.Instr)
		if at, ok := ph.pos[in]; ok && at < q {
			if ph.readers[in] == nil {
				ph.readers[in] = map[int]bool{}
			}
			ph.readers[in][q] = true
		}
	}
	ls.Instrs(func(u *ir.Instr) bool {
		if q, ok := ph.pos[u]; ok && !u.IsTerminator() {
			ph.populated[q] = true
			for _, br := range ph.branches {
				if br.under[u.Parent] || (u.Opcode == ir.OpPhi && u.Parent == br.merge) {
					br.steers[q] = true
				}
			}
			for _, op := range u.Ops {
				read(op, q)
			}
		}
		return true
	})
	for _, br := range ph.branches {
		for q := range br.steers {
			read(br.term.Ops[0], q)
		}
	}
	ls.Instrs(func(d *ir.Instr) bool {
		if ph.readers[d] != nil {
			ph.cross = append(ph.cross, d)
		}
		return true
	})
	p.ph = ph
	return ph
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

// lastValuePhi reports whether phi is a header phi no loop instruction
// reads: all it does is carry the latest value of its latch operand out
// of the loop, so it needs no ordering — the last block publishes it.
func lastValuePhi(p *Plan, phi *ir.Instr) bool {
	if phi.Opcode != ir.OpPhi || phi.Parent != p.LS.Header ||
		p.Loop.IVs.IVForPhi(phi) != nil || carriedPhi(p, phi) {
		return false
	}
	return unread(p.LS, phi)
}

// canLower checks whether a plan can be lowered to per-block dispatch:
// canonical loop shape, affinely re-seedable IVs, loop control every phase
// can replicate, sequential state expressible as guarded cells, and
// dependences that all point forward along the phases.
func canLower(p *Plan) error {
	ls, l := p.LS, p.Loop
	// Every phase loop re-seeds its IVs at the block's first iteration.
	if err := loopbuilder.Outlinable(l, true); err != nil {
		return err
	}
	for _, iv := range l.IVs.IVs {
		if iv.StepConst == nil {
			return fmt.Errorf("IV %s has non-constant step", iv.Phi.Ident())
		}
	}
	// The header executes tc+1 times originally (the final pass runs the
	// exit check) but once more per block and phase here; instructions
	// whose extra execution is observable cannot live there.
	for _, in := range ls.Header.Instrs {
		if in.Opcode == ir.OpStore || in.Opcode == ir.OpCall {
			return fmt.Errorf("header %s has side effects on the loop's final exit pass", in.Ident())
		}
	}
	// Header phis: replicable IV state, segment-carried cells, or
	// last-value live-outs.
	for _, phi := range ls.HeaderPhis() {
		if l.IVs.IVForPhi(phi) == nil && !carriedPhi(p, phi) && !lastValuePhi(p, phi) {
			return fmt.Errorf("header phi %s is neither IV nor sequential-segment state (reductions need privatization)", phi.Ident())
		}
	}
	// Every phase steers its own copy of the loop: the exit test must be
	// replicable, and a data-dependent branch must merge inside the
	// iteration and have its condition by the time a phase needs it.
	ph := p.phases()
	if !ph.replicated[ls.Header.Terminator()] {
		return fmt.Errorf("exit test of %s depends on loop data", ls.Header.Nam)
	}
	for _, br := range ph.branches {
		if br.merge == nil || br.merge == ls.Header || !ls.Contains(br.merge) {
			return fmt.Errorf("data-dependent branch in block %s does not merge inside the iteration", br.term.Parent.Nam)
		}
		for q := range br.steers {
			if q < ph.pos[br.term] {
				return fmt.Errorf("data-dependent branch in block %s decides about a phase that runs before its condition is known", br.term.Parent.Nam)
			}
		}
	}
	var inErr error
	for _, inner := range ls.Nat.Childs {
		at := -1
		inner.Instrs(func(in *ir.Instr) bool {
			if q, ok := ph.pos[in]; ok && at >= 0 && q != at {
				inErr = fmt.Errorf("inner loop at %s spans phases (it holds parts of different sequential segments)", inner.Header.Nam)
			} else if ok {
				at = q
			}
			return inErr == nil
		})
	}
	if inErr != nil {
		return inErr
	}
	// The aSCCDAG promises what distribution needs; hold it to that. A
	// dependence pointing to an earlier phase, or a carried one between
	// instructions of the parallel phases, would be silently reordered.
	ph.deps(l, func(from, to *ir.Instr, carried bool) bool {
		f, okF := ph.pos[from]
		t, okT := ph.pos[to]
		switch {
		case !okF || !okT:
		case f > t:
			inErr = fmt.Errorf("dependence %s -> %s points backward across phases", from.Ident(), to.Ident())
		case carried && t%2 == 0 && !lastValuePhi(p, to):
			inErr = fmt.Errorf("loop-carried dependence %s -> %s outside the sequential segments", from.Ident(), to.Ident())
		}
		return inErr == nil
	})
	if inErr != nil {
		return inErr
	}
	for _, d := range ph.cross {
		if d.Ty.Kind == ir.FuncKind {
			return fmt.Errorf("function-typed value %s crosses phases", d.Ident())
		}
	}
	// Live-outs: affine IV state, carried cells, last-value cells.
	for _, out := range l.LiveOut {
		iv := l.IVs.CycleOf(out)
		switch {
		case iv != nil && out != iv.Phi && ir.Value(out) != ls.LatchIncoming(iv.Phi):
			// Only the phi and the full update feeding it equal
			// start + tc*step at the exit; an intermediate update of a
			// multi-instruction step cycle does not.
			return fmt.Errorf("live-out %s is an intermediate IV update", out.Ident())
		case iv == nil && !carriedPhi(p, out) && !lastValuePhi(p, out):
			return fmt.Errorf("live-out %s is not reconstructible after the dispatch", out.Ident())
		}
	}
	return nil
}

// transform rewrites the planned loop into a per-block dispatched task
// of phase loops with signal-guarded sequential segments.
func transform(p *Plan, taskName string) error {
	ls, l := p.LS, p.Loop
	m := p.n.Mod

	i64 := ir.I64Type
	screate := m.DeclareFunction(interp.ExternSignalCreate, ir.FuncOf(i64, i64))
	swait := m.DeclareFunction(interp.ExternSignalWait, ir.FuncOf(ir.VoidType, i64, i64))
	sfire := m.DeclareFunction(interp.ExternSignalFire, ir.FuncOf(ir.VoidType, i64, i64))
	o := loopbuilder.BeginOutline(m, ls)

	// ---- pre-header: trip count, block size, signals, environment ----
	tc, err := loopbuilder.EmitTripCount(o.Bld, l.IVs.GoverningIV())
	if err != nil {
		return err
	}
	blk := emitBlockSize(o.Bld, tc, p.cfg.Cores)
	up := o.Bld.CreateBinOp(ir.OpAdd, tc, o.Bld.CreateBinOp(ir.OpSub, blk, ir.ConstInt(1), ""), "")
	nblocks := o.Bld.CreateBinOp(ir.OpDiv, up, blk, "nblocks")
	sigs := make([]ir.Value, p.NumSeq)
	for s := range sigs {
		sigs[s] = o.Bld.CreateCall(screate, []ir.Value{ir.ConstInt(0)}, fmt.Sprintf("sig%d", s))
	}

	// Cells: carried state (guarded by its segment's signal) and
	// last-value live-outs, both seeded with the loop-entry value.
	var cells []*ir.Instr
	for _, phi := range ls.HeaderPhis() {
		if carriedPhi(p, phi) || lastValuePhi(p, phi) {
			cells = append(cells, phi)
		}
	}
	eb := env.NewBuilder()
	for _, v := range l.LiveIn {
		eb.AddLiveIn(v)
	}
	eb.AddLiveIn(tc)
	eb.AddLiveIn(blk)
	for _, s := range sigs {
		eb.AddLiveIn(s)
	}
	for _, phi := range cells {
		eb.AddLiveOut(phi)
	}
	o.PackEnv(eb, 0, "helix.env")
	proto := &verify.Protocol{Technique: verify.HELIX}
	for s, sig := range sigs {
		proto.Signals = append(proto.Signals, verify.Cell{Slot: int64(o.Env.SlotOf(sig).Index), Seg: s})
	}
	for _, phi := range cells {
		slot := o.Env.SlotOf(phi).Index
		o.Store(slot, ls.EntryIncoming(phi))
		if s, ok := p.SegmentOf[phi]; ok {
			proto.Carried = append(proto.Carried, verify.Cell{Slot: int64(slot), Seg: s})
		}
	}

	// ---- the per-block task, one dispatched worker per block ----
	task := o.NewTask(taskName)
	buildBlockTask(p, task, tc, blk, sigs, swait, sfire)
	o.Dispatch(task.Fn, nblocks, proto)

	// ---- live-out reconstruction ----
	finals := map[*ir.Instr]ir.Value{}
	for _, out := range l.LiveOut {
		if iv := l.IVs.CycleOf(out); iv != nil {
			finals[out] = o.IVFinal(iv, tc)
			continue
		}
		finals[out] = o.Reload(o.Env.SlotOf(out).Index, out.Ty)
	}
	o.Finish(finals)
	return nil
}

// buildBlockTask fills the task function running one block of iterations
// as a chain of phase loops.
func buildBlockTask(p *Plan, task *env.Task, tc, blk ir.Value, sigs []ir.Value, swait, sfire *ir.Function) {
	ls, l, ph := p.LS, p.Loop, p.phases()
	b := loopbuilder.NewBody(task, ls)
	bld := b.Bld
	slotOf := task.Env.SlotOf

	// Block identity: iterations [lo, hi), every IV's value at lo, one
	// buffer per crossing value.
	w := ir.Value(task.WorkerID)
	w1 := bld.CreateBinOp(ir.OpAdd, w, ir.ConstInt(1), "w1")
	lo := bld.CreateBinOp(ir.OpMul, w, b.Map(blk), "lo")
	hiRaw := bld.CreateBinOp(ir.OpAdd, lo, b.Map(blk), "")
	over := bld.CreateCmp(ir.OpGt, hiRaw, b.Map(tc), "")
	hi := bld.CreateSelect(over, b.Map(tc), hiRaw, "hi")
	lp := &blockLoop{Plan: p, seed: map[*loops.IV]ir.Value{}, buf: map[*ir.Instr]ir.Value{}}
	lp.n = bld.CreateBinOp(ir.OpSub, hi, lo, "n")
	for _, iv := range l.IVs.IVs {
		lp.seed[iv] = b.SeedIV(iv, lo)
	}
	for i, d := range ph.cross {
		// One cell more than a block has iterations: a header-resident
		// value is also computed on the pass that leaves the loop.
		lp.buf[d] = bld.CreateAlloca(ir.I64Type, maxBlock+1, fmt.Sprintf("buf%d", i))
	}

	tail := b.Entry
	lastVals := map[*ir.Instr]ir.Value{} // last-value phi -> its clone
	for q := 0; q <= 2*p.NumSeq; q++ {
		if !ph.runs(q) {
			continue
		}
		if tail != b.Entry {
			b = b.Chain()
		}
		lp.build(b, q)
		tail = b.Done
		var carried []*ir.Instr
		for _, phi := range ls.HeaderPhis() {
			switch {
			case ph.pos[phi] != q:
			case carriedPhi(p, phi):
				carried = append(carried, phi)
			case lastValuePhi(p, phi):
				lastVals[phi] = b.Instr(phi)
			}
		}
		if q%2 == 0 {
			continue
		}
		// A segment's loop sits between its wait and its fire; its
		// carried phis enter from their cells and leave into them.
		sig := b.Map(sigs[q/2])
		bld.SetInsertionBefore(b.Entry.Terminator())
		bld.CreateCall(swait, []ir.Value{sig, w}, "")
		for _, phi := range carried {
			raw := bld.CreateLoad(task.EnvSlotAddr(bld, slotOf(phi)), "carried")
			b.EnterWith(phi, env.FromBits(bld, raw, phi.Ty))
		}
		bld.SetInsertionBlock(tail)
		for _, phi := range carried {
			b.Publish(slotOf(phi), b.Instr(phi))
		}
		bld.CreateCall(sfire, []ir.Value{sig, w1}, "")
	}

	// The last block publishes the last-value live-outs.
	bld.SetInsertionBlock(tail)
	if len(lastVals) > 0 {
		isLast := bld.CreateCmp(ir.OpEq, w1, task.NumWorkers, "islast")
		pub := task.Fn.NewBlock("publish")
		retb := task.Fn.NewBlock("ret")
		bld.CreateCondBr(isLast, pub, retb)
		bld.SetInsertionBlock(pub)
		for _, phi := range ls.HeaderPhis() {
			if v := lastVals[phi]; v != nil {
				b.Publish(slotOf(phi), v)
			}
		}
		bld.CreateBr(retb)
		bld.SetInsertionBlock(retb)
	}
	bld.CreateRet(nil)
	// Skipped branches leave the blocks under them without a way in.
	passes.RemoveUnreachable(task.Fn)
}

// blockLoop is what every phase loop of one block task shares: the
// block's iteration count, the IV values at its first iteration, and the
// crossing-value buffers.
type blockLoop struct {
	*Plan
	n    ir.Value
	seed map[*loops.IV]ir.Value
	buf  map[*ir.Instr]ir.Value
}

// build emits phase q into b: a copy of the loop over the block holding
// the phase's own instructions plus the replicated control they and the
// branches need, reading and writing the crossing-value buffers at the
// iteration's offset in the block.
func (lp *blockLoop) build(b *loopbuilder.Body, q int) {
	ls, l, ph, bld := lp.LS, lp.Loop, lp.phases(), b.Bld
	exitCmp := l.IVs.GoverningIV().ExitCmp
	own := func(in *ir.Instr) bool { return ph.own(in, q) }
	steered := map[*ir.Instr]bool{}
	for _, br := range ph.branches {
		steered[br.term] = br.steers[q]
	}
	need := map[*ir.Instr]bool{exitCmp: true} // rewritten below: its operands are not needed
	var mark func(v ir.Value)
	mark = func(v ir.Value) {
		in, ok := v.(*ir.Instr)
		if !ok || need[in] || !ph.replicated[in] {
			return
		}
		need[in] = true
		for _, op := range in.Ops {
			mark(op)
		}
	}
	ls.Instrs(func(in *ir.Instr) bool {
		if own(in) || steered[in] {
			for _, op := range in.Ops {
				mark(op)
			}
		} else if in.IsTerminator() {
			mark(in)
		}
		return true
	})
	b.Clone(func(in *ir.Instr) bool { return need[in] || own(in) || steered[in] })
	// A data-dependent branch that decides nothing this phase owns is
	// skipped: straight to its merge point.
	for _, br := range ph.branches {
		if !br.steers[q] {
			bld.SetInsertionBlock(b.Block(br.term.Parent))
			bld.CreateBr(b.Block(br.merge))
		}
	}

	// k counts the block's iterations: it steers the phase loop (the exit
	// comparison becomes k < n, whatever the original loop tested) and
	// indexes the crossing-value buffers.
	latch := b.Block(ls.Latches[0])
	bld.SetInsertionBlock(b.Block(ls.Header))
	k := bld.CreatePhi(ir.I64Type, "k")
	bld.SetInsertionBefore(latch.Terminator())
	next := bld.CreateBinOp(ir.OpAdd, k, ir.ConstInt(1), "")
	k.Ops, k.Blocks = []ir.Value{ir.ConstInt(0), next}, []*ir.Block{b.Entry, latch}

	// A crossing value this phase defines is stored right after its
	// definition; one it reads is loaded where its definition stood, so
	// the load dominates what the definition did.
	cell := func(d *ir.Instr) ir.Value {
		at := b.Block(d.Parent)
		idx := at.FirstNonPhi()
		if nd := b.Instr(d); nd != nil && d.Opcode != ir.OpPhi {
			idx = at.IndexOf(nd) + 1
		}
		bld.SetInsertionBefore(at.Instrs[idx])
		return bld.CreatePtrAdd(lp.buf[d], k, "")
	}
	for _, d := range ph.cross {
		switch {
		case own(d):
			addr := cell(d)
			bld.CreateStore(env.ToBits(bld, b.Instr(d)), addr)
		case ph.readers[d][q]:
			raw := bld.CreateLoad(cell(d), "")
			b.Subst(d, env.FromBits(bld, raw, d.Ty))
		}
	}

	b.Wire()
	for _, iv := range l.IVs.IVs {
		if b.Instr(iv.Phi) != nil {
			b.EnterWith(iv.Phi, lp.seed[iv])
		}
	}
	ncmp := b.Instr(exitCmp)
	ncmp.Opcode, ncmp.Ops = ir.OpLt, []ir.Value{k, lp.n}
}

package dswp

import (
	"fmt"
	"sort"

	"noelle/internal/analysis"
	"noelle/internal/env"
	"noelle/internal/interp"
	"noelle/internal/ir"
	"noelle/internal/loopbuilder"
	"noelle/internal/loops"
	"noelle/internal/pdg"
	"noelle/internal/verify"
)

// The executable lowering turns a stage plan into NOELLE task functions:
// every stage clones the full loop-control skeleton (the Loop's clonable
// set: IV cycles, derived-IV arithmetic, governing comparisons and
// branches) so it can steer its own copy of the iteration space, keeps
// only the instructions the plan assigned to it, and gets the values of
// other stages it reads in one of two ways.
//
// Rematerialize. A value that is a pure, non-memory, non-trapping
// instruction whose operands the reading stage has anyway — the skeleton,
// live-ins and loop-invariant computations, what it owns, what it receives
// or recomputes for its own instructions — is cloned into that stage and
// never travels; its copy in the owning stage goes when nothing is left
// there that reads it.
//
// Send in chunks. Every remaining (value, reading stage) pair has a bounded
// queue of its own (internal/queue via the noelle_queue_* externs), but no
// queue operation per value: the producer stores the value into a
// stage-local buffer of chunk cells once per iteration, at the latch, and
// one noelle_queue_push_n moves the buffer when it is full; the consumer
// refills its own buffer with one noelle_queue_pop_n at the top of the
// first iteration of each chunk and loads the value from it once per
// iteration. Both sides count iterations in the same header phi, 0 to
// chunk-1, so they cut the stream at the same places. What is staged when
// the loop ends goes out as a short last chunk, then the producer closes
// its queues, so a consumer expecting more values fails deterministically
// instead of parking forever and a pop_n of the last chunk comes back
// short instead. Values go through the queue and nowhere else: the
// sequential fallback runs stage 0 to completion before stage 1 starts, and
// only a queue grows to hold a whole stream.
//
// Value queues order a consumer behind its producer already; what they do
// not order is memory. Where the plan has a cross-stage memory dependence
// from stage a to stage b, a token queue links each pair of adjacent stages
// from a to b and carries one token per chunk, pushed after the chunk's
// last store and popped before the next stage's first access of that
// chunk, so stage s+1 starts a chunk only after stage s finished it and the
// dependence rides the chain's happens-before (loop-carried dependences
// never cross stages — the aSCCDAG merges their endpoints into one SCC). A
// pair of stages no such dependence spans gets no token queue: nothing
// would consume the order it imposes.
//
// Every stage issues its operations of one chunk in one global order —
// value queues by (producing stage, consuming stage), a stage's outgoing
// token after its values — because a queue smaller than a chunk
// (noelle-bin -queue-cap 1) makes a bulk push wait for the matching pop,
// and two stages that disagree on the order would wait for each other.
//
// The dispatching function creates the queues in the pre-header, ships
// their handles through environment slots, and launches one worker per
// stage with noelle_dispatch — byte-identical output to the sequential
// fallback, for the same reasons dispatch itself is deterministic.

// chunk is K, the iterations a staging buffer holds and one bulk queue
// operation moves; chunkedQueueCap is the capacity, in values, of every
// value queue the lowering creates (a token queue, one token per chunk,
// holds chunkedQueueCap/chunk; noelle-bin -queue-cap overrides both at
// run time). Measured on the benchmark's
// 2-vCPU host (dswp_pipe: pipeline-65536 at 2 cores, compiled engine;
// run_ms over the same run's orig_run_ms, three runs of --seconds 3 per
// cell, the original at 13.1-15.7 ms): at capacity 1024, K = 32 1.00-1.08,
// 64 1.00-1.02, 128 0.96-1.03, 256 0.98-1.12; K = 512 needs capacity 4096
// to hold as many chunks and reaches 0.90-0.97, but a loop gets no overlap
// at all until its trip count passes K, so the smallest K on the plateau
// it is. At K = 128, capacity 256 is 2 chunks of run-ahead and costs
// 1.12-1.19 (the stages park on each other most chunks); 1024 is 8 chunks;
// 4096 is not resolved from 1024 (0.93-1.03).
const (
	chunk           = 128
	chunkedQueueCap = 1024
)

// xEdge is one cross-stage SSA dependence that travels: the value flows
// from the stage owning val to stage to over a dedicated queue, once per
// iteration, a chunk at a time.
type xEdge struct {
	val  *ir.Instr
	from int
	to   int
}

// transfers is how every stage gets the values it reads from other
// stages.
type transfers struct {
	// edges are the values sent, ordered by (from, to).
	edges []xEdge
	// extra[s] holds the instructions of other stages that stage s clones
	// for itself; dropped[s] the instructions stage s owns and no longer
	// needs.
	extra, dropped []map[*ir.Instr]bool
}

// keeps reports whether stage s runs a copy of in.
func (x *transfers) keeps(p *Plan, s int, in *ir.Instr) bool {
	if p.Loop.Clonable(in) || x.extra[s][in] {
		return true
	}
	owner, owned := p.SegmentOf[in]
	return owned && owner == s && !x.dropped[s][in]
}

// recomputable reports whether a stage that has in's operands can compute
// in itself: no memory access, no trap, no control.
func recomputable(in *ir.Instr) bool {
	return in.Opcode >= ir.OpPtrAdd && in.Opcode <= ir.OpI2P && in.Opcode != ir.OpDiv && in.Opcode != ir.OpRem
}

// crossStageUses lists the plan's cross-stage SSA dependences in
// deterministic (block, instruction, operand) order, deduplicated per
// (value, consuming stage).
func crossStageUses(p *Plan) []xEdge {
	type key struct {
		val *ir.Instr
		to  int
	}
	seen := map[key]bool{}
	var uses []xEdge
	for _, b := range p.LS.Blocks() {
		for _, in := range b.Instrs {
			if p.Loop.Clonable(in) {
				continue
			}
			t, owned := p.SegmentOf[in]
			if !owned {
				continue
			}
			for _, op := range in.Ops {
				d, ok := op.(*ir.Instr)
				if !ok || !p.LS.ContainsInstr(d) || p.Loop.Clonable(d) {
					continue
				}
				s := p.SegmentOf[d]
				if s == t || seen[key{d, t}] {
					continue
				}
				seen[key{d, t}] = true
				uses = append(uses, xEdge{val: d, from: s, to: t})
			}
		}
	}
	return uses
}

// planTransfers decides, per cross-stage use, between recomputing the
// value in the reading stage and sending it, then retires from each
// producing stage the pure instructions that lost their last reader.
func planTransfers(p *Plan) *transfers {
	l, ls := p.Loop, p.LS
	x := &transfers{
		extra:   make([]map[*ir.Instr]bool, p.NumStages),
		dropped: make([]map[*ir.Instr]bool, p.NumStages),
	}
	wanted := make([]map[*ir.Instr]bool, p.NumStages)
	for s := range wanted {
		x.extra[s], x.dropped[s], wanted[s] = map[*ir.Instr]bool{}, map[*ir.Instr]bool{}, map[*ir.Instr]bool{}
	}
	uses := crossStageUses(p)
	for _, u := range uses {
		wanted[u.to][u.val] = true
	}
	// has: stage t can name v without a queue of v's own. A value t reads
	// directly is there one way or the other, sent or recomputed; a
	// loop-invariant computation is cloned along.
	var has func(v ir.Value, t int) bool
	canClone := func(d *ir.Instr, t int) bool {
		if !recomputable(d) {
			return false
		}
		for _, op := range d.Ops {
			if !has(op, t) {
				return false
			}
		}
		return true
	}
	has = func(v ir.Value, t int) bool {
		d, ok := v.(*ir.Instr)
		if !ok || !ls.ContainsInstr(d) || l.Clonable(d) || wanted[t][d] || x.extra[t][d] {
			return true
		}
		if s, owned := p.SegmentOf[d]; owned && s == t {
			return true
		}
		if l.Invariants.IsInvariant(d) && canClone(d, t) {
			x.extra[t][d] = true
			return true
		}
		return false
	}
	for _, u := range uses {
		if canClone(u.val, u.to) {
			x.extra[u.to][u.val] = true
		} else {
			x.edges = append(x.edges, u)
		}
	}
	sort.SliceStable(x.edges, func(i, j int) bool {
		a, b := x.edges[i], x.edges[j]
		if a.from != b.from {
			return a.from < b.from
		}
		return a.to < b.to
	})

	// Retire what only fed values that no longer leave the stage.
	pinned := map[*ir.Instr]bool{}
	for _, e := range x.edges {
		pinned[e.val] = true
	}
	for _, out := range l.LiveOut {
		pinned[out] = true
	}
	for changed := true; changed; {
		changed = false
		read := map[*ir.Instr]bool{} // by a copy in the reader's own stage
		ls.Instrs(func(in *ir.Instr) bool {
			for s := 0; s < p.NumStages; s++ {
				if !x.keeps(p, s, in) {
					continue
				}
				for _, op := range in.Ops {
					if d, ok := op.(*ir.Instr); ok {
						if o, owned := p.SegmentOf[d]; owned && o == s {
							read[d] = true
						}
					}
				}
			}
			return true
		})
		ls.Instrs(func(in *ir.Instr) bool {
			s, owned := p.SegmentOf[in]
			if owned && recomputable(in) && !l.Clonable(in) && !pinned[in] && !read[in] && !x.dropped[s][in] {
				x.dropped[s][in] = true
				changed = true
			}
			return true
		})
	}
	return x
}

// bodyTop returns the header's unique in-loop successor — the first
// block of every iteration's body, where incoming communication lands.
func bodyTop(ls *loops.LS) *ir.Block {
	var bt *ir.Block
	for _, succ := range ls.Header.Successors() {
		if !ls.Contains(succ) {
			continue
		}
		if bt != nil {
			return nil
		}
		bt = succ
	}
	if bt == ls.Header {
		return nil
	}
	return bt
}

// canLower checks whether a plan can be lowered to executable pipeline
// form: the canonical loop shape the generator handles, fully replicable
// control, a body top and a latch where every sent value can be staged
// exactly once per iteration, and no calls (stage-grouped execution would
// reorder their I/O).
func canLower(p *Plan) error {
	ls, l := p.LS, p.Loop
	// Stages replicate the loop control as it is; nothing is re-seeded.
	if err := loopbuilder.Outlinable(l, false); err != nil {
		return err
	}
	if l.IVs.GoverningIV() == nil {
		return fmt.Errorf("no governing IV to replicate per stage")
	}
	latch := ls.Latches[0]
	if latch == ls.Header {
		return fmt.Errorf("single-block loop: no body to pipeline")
	}
	if bt := bodyTop(ls); bt == nil || len(bt.Preds()) != 1 {
		return fmt.Errorf("no in-loop header successor entered once per iteration")
	}
	for _, b := range ls.Blocks() {
		if term := b.Terminator(); term != nil && !l.Clonable(term) {
			return fmt.Errorf("non-replicable control in block %s", b.Nam)
		}
	}
	for _, in := range ls.Header.Instrs {
		if in.Opcode != ir.OpPhi && !l.Clonable(in) {
			return fmt.Errorf("stage-owned instruction %s in the header", in.Ident())
		}
	}
	var inErr error
	ls.Instrs(func(in *ir.Instr) bool {
		if in.Opcode == ir.OpCall {
			inErr = fmt.Errorf("call %s inside the loop", in.Ident())
			return false
		}
		// A phi cannot consume a cross-stage value: its incoming operand
		// is evaluated on the edge, before the body-top pop that would
		// carry the value into this stage.
		if in.Opcode == ir.OpPhi && !l.Clonable(in) {
			if t, owned := p.SegmentOf[in]; owned {
				for _, op := range in.Ops {
					d, ok := op.(*ir.Instr)
					if !ok || !ls.ContainsInstr(d) || l.Clonable(d) || p.SegmentOf[d] == t {
						continue
					}
					inErr = fmt.Errorf("phi %s consumes cross-stage value %s", in.Ident(), d.Ident())
					return false
				}
			}
		}
		// Replicated control must be closed over replicable inputs:
		// every loop-defined operand of a clonable instruction is itself
		// clonable, otherwise a stage that does not own the operand
		// would clone a dangling reference to deleted code.
		if l.Clonable(in) {
			for _, op := range in.Ops {
				d, ok := op.(*ir.Instr)
				if !ok || !ls.ContainsInstr(d) || l.Clonable(d) {
					continue
				}
				inErr = fmt.Errorf("replicated control %s consumes stage-owned %s", in.Ident(), d.Ident())
				return false
			}
		}
		return true
	})
	if inErr != nil {
		return inErr
	}
	// Staging executes in the body-top and latch blocks; producers must
	// define their value on every iteration for the two sides to count
	// the same chunks.
	dom := analysis.NewDomTree(ls.Fn)
	for _, e := range planTransfers(p).edges {
		if e.from > e.to {
			return fmt.Errorf("backward cross-stage dependence on %s", e.val.Ident())
		}
		if !dom.Dominates(e.val.Parent, latch) {
			return fmt.Errorf("cross-stage value %s is not computed every iteration", e.val.Ident())
		}
	}
	for _, out := range l.LiveOut {
		if !l.Clonable(out) {
			if _, owned := p.SegmentOf[out]; !owned {
				return fmt.Errorf("live-out %s belongs to no stage", out.Ident())
			}
		}
	}
	return nil
}

// queueOps is what a stage needs to talk: the queue externs and the
// handles created in the pre-header (val per sent value, tok per adjacent
// stage pair, nil where the pair needs no token).
type queueOps struct {
	bulkPush, bulkPop, push, pop, close *ir.Function
	val, tok                            []ir.Value
}

// transform rewrites the planned loop into NumStages dispatched stage
// workers connected by queues.
func transform(p *Plan, taskName string) {
	l := p.Loop
	m := p.n.Mod
	x := planTransfers(p)

	i64, buf := ir.I64Type, ir.PointerTo(ir.I64Type)
	qcreate := m.DeclareFunction(interp.ExternQueueCreate, ir.FuncOf(i64, i64))
	qs := &queueOps{
		bulkPush: m.DeclareFunction(interp.ExternQueuePushN, ir.FuncOf(ir.VoidType, i64, buf, i64)),
		bulkPop:  m.DeclareFunction(interp.ExternQueuePopN, ir.FuncOf(ir.VoidType, i64, buf, i64)),
		close:    m.DeclareFunction(interp.ExternQueueClose, ir.FuncOf(ir.VoidType, i64)),
	}
	o := loopbuilder.BeginOutline(m, p.LS)

	// ---- queue creation in the pre-header ----
	newQueue := func(name string, capacity int64) ir.Value {
		return o.Bld.CreateCall(qcreate, []ir.Value{ir.ConstInt(capacity)}, name)
	}
	qs.val = make([]ir.Value, len(x.edges))
	for i := range x.edges {
		qs.val[i] = newQueue(fmt.Sprintf("q%d", i), chunkedQueueCap)
	}
	// tok[k] links stage k to stage k+1; nil where no cross-stage memory
	// dependence spans the pair (the comm tier's coverage check asks for
	// exactly the links a recorded dependence a>b spans: a <= k < b). A
	// token stands for a chunk of iterations, so the same run-ahead is
	// 1/chunk of the value capacity.
	memDeps := crossStageMemDeps(p)
	qs.tok = make([]ir.Value, p.NumStages-1)
	for _, d := range memDeps {
		for k := d[0]; k < d[1]; k++ {
			if qs.tok[k] == nil {
				qs.push = m.DeclareFunction(interp.ExternQueuePush, ir.FuncOf(ir.VoidType, i64, i64))
				qs.pop = m.DeclareFunction(interp.ExternQueuePop, ir.FuncOf(i64, i64))
				qs.tok[k] = newQueue(fmt.Sprintf("tq%d", k), chunkedQueueCap/chunk)
			}
		}
	}

	// ---- environment: live-ins, queue handles, live-out cells ----
	eb := env.NewBuilder()
	for _, v := range l.LiveIn {
		eb.AddLiveIn(v)
	}
	for _, q := range qs.val {
		eb.AddLiveIn(q)
	}
	for _, q := range qs.tok {
		if q != nil {
			eb.AddLiveIn(q)
		}
	}
	for _, out := range l.LiveOut {
		eb.AddLiveOut(out)
	}
	o.PackEnv(eb, 0, "dswp.env")

	// ---- stage workers + the worker-id demultiplexer ----
	proto := &verify.Protocol{Technique: verify.DSWP, K: chunk, MemDeps: memDeps}
	stages := make([]*env.Task, p.NumStages)
	for s := range stages {
		stages[s] = o.NewTask(fmt.Sprintf("%s.stage%d", taskName, s))
		proto.Tasks = append(proto.Tasks, stages[s].Fn.Nam)
		buildStage(p, stages[s], x, qs, s)
	}
	wrapper := o.NewTask(taskName)
	buildWrapper(wrapper, stages)
	for i, e := range x.edges {
		proto.Queues = append(proto.Queues, verify.Queue{Slot: int64(o.Env.SlotOf(qs.val[i]).Index), From: e.from, To: e.to})
	}
	for k, q := range qs.tok {
		if q != nil {
			proto.Queues = append(proto.Queues, verify.Queue{Slot: int64(o.Env.SlotOf(q).Index), Token: true, From: k, To: k + 1})
		}
	}

	// ---- dispatch + live-out reconstruction ----
	o.Dispatch(wrapper.Fn, ir.ConstInt(int64(p.NumStages)), proto)
	finals := map[*ir.Instr]ir.Value{}
	for _, out := range l.LiveOut {
		finals[out] = o.Reload(o.Env.SlotOf(out).Index, out.Ty)
	}
	o.Finish(finals)
}

// crossStageMemDeps lists the plan's cross-stage memory dependences as
// sorted, deduplicated (from, to) stage pairs with from < to — the edges
// whose happens-before the token chain carries. Backward and same-stage
// memory dependences never reach here: loop-carried memory dependences
// collapse their endpoints into one SCC (and thus one stage), so what
// crosses stages is intra-iteration and forward.
func crossStageMemDeps(p *Plan) [][2]int {
	seen := map[[2]int]bool{}
	var pairs [][2]int
	p.Loop.DG.Edges(func(e *pdg.Edge) bool {
		if e.Control || !e.Memory {
			return true
		}
		from, okF := p.SegmentOf[e.From]
		to, okT := p.SegmentOf[e.To]
		if !okF || !okT || p.Loop.Clonable(e.From) || p.Loop.Clonable(e.To) {
			return true
		}
		if from > to {
			from, to = to, from
		}
		if from == to || seen[[2]int{from, to}] {
			return true
		}
		seen[[2]int{from, to}] = true
		pairs = append(pairs, [2]int{from, to})
		return true
	})
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i][0] != pairs[j][0] {
			return pairs[i][0] < pairs[j][0]
		}
		return pairs[i][1] < pairs[j][1]
	})
	return pairs
}

// pubStageOf picks the stage that publishes a live-out: the owning stage
// for stage-assigned values, stage 0 for replicated loop control (every
// stage computes the same final value, so the choice is arbitrary but
// must be unique).
func pubStageOf(p *Plan, out *ir.Instr) int {
	if p.Loop.Clonable(out) {
		return 0
	}
	return p.SegmentOf[out]
}

// buildStage fills one stage worker: load live-ins, run a copy of the
// loop restricted to what this stage keeps, stage the values it sends and
// receives in buffers of its own, move the buffers at chunk boundaries,
// push the short last chunk, publish live-outs and close outgoing queues
// on exit.
func buildStage(p *Plan, task *env.Task, x *transfers, qs *queueOps, s int) {
	ls := p.LS
	// Queue handles travel as ordinary live-ins.
	b := loopbuilder.NewBody(task, ls)
	bld := b.Bld
	b.Clone(func(in *ir.Instr) bool { return x.keeps(p, s, in) })

	var in, out []int // indices into x.edges, in the global order
	for i, e := range x.edges {
		switch s {
		case e.to:
			in = append(in, i)
		case e.from:
			out = append(out, i)
		}
	}
	tokIn, tokOut := s > 0 && qs.tok[s-1] != nil, s < p.NumStages-1 && qs.tok[s] != nil
	receives, sends := len(in) > 0 || tokIn, len(out) > 0 || tokOut
	if !receives && !sends {
		b.Wire()
		bld.SetInsertionBlock(b.Done)
		publishLiveOuts(p, b, s)
		bld.CreateRet(nil)
		return
	}

	// One staging buffer per queue end, allocated in the entry block, and
	// the position in the current chunk as a header phi.
	bufs := map[int]ir.Value{}
	for _, i := range append(append([]int{}, in...), out...) {
		bufs[i] = bld.CreateAlloca(ir.I64Type, chunk, fmt.Sprintf("buf%d", i))
	}
	bld.SetInsertionBlock(b.Block(ls.Header))
	pos := bld.CreatePhi(ir.I64Type, "pos")
	staged := func(i int) ir.Value { return bld.CreatePtrAdd(bufs[i], pos, "") }

	// Received values are loaded at the top of the body, sent ones stored
	// right before the back-branch.
	top := b.Block(bodyTop(ls))
	bld.SetInsertionBefore(top.Instrs[top.FirstNonPhi()])
	var first *ir.Instr
	if receives {
		first = bld.CreateCmp(ir.OpEq, pos, ir.ConstInt(0), "chunk.first")
	}
	for _, i := range in {
		raw := bld.CreateLoad(staged(i), fmt.Sprintf("recv%d", i))
		b.Subst(x.edges[i].val, env.FromBits(bld, raw, x.edges[i].val.Type()))
	}
	back := b.Block(ls.Latches[0]).Terminator()
	bld.SetInsertionBefore(back)
	for _, i := range out {
		bld.CreateStore(env.ToBits(bld, b.Instr(x.edges[i].val)), staged(i))
	}
	next := bld.CreateBinOp(ir.OpAdd, pos, ir.ConstInt(1), "pos.next")
	full := bld.CreateCmp(ir.OpEq, next, ir.ConstInt(chunk), "chunk.full")
	b.Wire()

	// Chunk boundaries. The first iteration of a chunk detours through a
	// block that refills the incoming buffers (values, then the token);
	// the last one through a block that pushes the outgoing ones (values,
	// then the token).
	fn := task.Fn
	bulk := func(op *ir.Function, i int, count ir.Value) {
		bld.CreateCall(op, []ir.Value{b.Map(qs.val[i]), bufs[i], count}, "")
	}
	if receives {
		body := loopbuilder.SplitBefore(top.Instrs[top.IndexOf(first)+1], "chunk.body")
		begin := fn.NewBlock("chunk.begin")
		bld.SetInsertionBlock(top)
		bld.CreateCondBr(first, begin, body)
		bld.SetInsertionBlock(begin)
		for _, i := range in {
			bulk(qs.bulkPop, i, ir.ConstInt(chunk))
		}
		if tokIn {
			bld.CreateCall(qs.pop, []ir.Value{b.Map(qs.tok[s-1])}, "tok")
		}
		bld.CreateBr(body)
	}
	latch := back.Parent
	cont := loopbuilder.SplitBefore(back, "chunk.cont")
	end := fn.NewBlock("chunk.end")
	bld.SetInsertionBlock(latch)
	bld.CreateCondBr(full, end, cont)
	bld.SetInsertionBlock(end)
	for _, i := range out {
		bulk(qs.bulkPush, i, ir.ConstInt(chunk))
	}
	token := func() {
		bld.CreateCall(qs.push, []ir.Value{b.Map(qs.tok[s]), ir.ConstInt(1)}, "")
	}
	if tokOut {
		token()
	}
	bld.CreateBr(cont)
	bld.SetInsertionBlock(cont)
	wrapped := bld.CreatePhi(ir.I64Type, "pos.wrap")
	wrapped.SetPhiIncoming(latch, next)
	wrapped.SetPhiIncoming(end, ir.ConstInt(0))
	pos.SetPhiIncoming(b.Entry, ir.ConstInt(0))
	pos.SetPhiIncoming(cont, wrapped)

	// done: publish this stage's live-outs, push what is staged of a chunk
	// the loop ended in and close, queue by queue — the consumer asked for
	// a whole chunk and learns from the close that this is all of it, so a
	// close held back behind another queue's push could wait for that very
	// consumer — then ret.
	bld.SetInsertionBlock(b.Done)
	publishLiveOuts(p, b, s)
	for _, i := range out {
		bulk(qs.bulkPush, i, pos)
		bld.CreateCall(qs.close, []ir.Value{b.Map(qs.val[i])}, "")
	}
	if tokOut {
		tail, closing := fn.NewBlock("chunk.tail"), fn.NewBlock("closing")
		partial := bld.CreateCmp(ir.OpNe, pos, ir.ConstInt(0), "chunk.partial")
		bld.CreateCondBr(partial, tail, closing)
		bld.SetInsertionBlock(tail)
		token()
		bld.CreateBr(closing)
		bld.SetInsertionBlock(closing)
		bld.CreateCall(qs.close, []ir.Value{b.Map(qs.tok[s])}, "")
	}
	bld.CreateRet(nil)
}

// publishLiveOuts stores the live-outs stage s answers for into their
// environment cells.
func publishLiveOuts(p *Plan, b *loopbuilder.Body, s int) {
	for _, out := range p.Loop.LiveOut {
		if pubStageOf(p, out) == s {
			b.Publish(b.Task.Env.SlotOf(out), b.Instr(out))
		}
	}
}

// buildWrapper emits the dispatched task: a worker-id demultiplexer
// calling the matching stage function (worker w runs stage w).
func buildWrapper(w *env.Task, stages []*env.Task) {
	bld := ir.NewBuilder()
	cur := w.Fn.NewBlock("entry")
	for s, st := range stages {
		bld.SetInsertionBlock(cur)
		args := []ir.Value{w.EnvPtr, w.WorkerID, w.NumWorkers}
		if s == len(stages)-1 {
			bld.CreateCall(st.Fn, args, "")
			bld.CreateRet(nil)
			return
		}
		run := w.Fn.NewBlock(fmt.Sprintf("run%d", s))
		next := w.Fn.NewBlock(fmt.Sprintf("sel%d", s+1))
		c := bld.CreateCmp(ir.OpEq, w.WorkerID, ir.ConstInt(int64(s)), "")
		bld.CreateCondBr(c, run, next)
		bld.SetInsertionBlock(run)
		bld.CreateCall(st.Fn, args, "")
		bld.CreateRet(nil)
		cur = next
	}
}

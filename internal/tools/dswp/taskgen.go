package dswp

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"noelle/internal/analysis"
	"noelle/internal/env"
	"noelle/internal/interp"
	"noelle/internal/ir"
	"noelle/internal/loopbuilder"
	"noelle/internal/loops"
	"noelle/internal/pdg"
	"noelle/internal/queue"
	"noelle/internal/verify"
)

// The executable lowering turns a stage plan into NOELLE task functions:
// every stage clones the full loop-control skeleton (the Loop's clonable
// set: IV cycles, derived-IV arithmetic, governing comparisons and
// branches) so it can steer its own copy of the iteration space, keeps
// only the instructions the plan assigned to it, and exchanges
// cross-stage SSA values over bounded queues (internal/queue via the
// noelle_queue_* externs). Value queues order a consumer behind its
// producer already; what they do not order is memory. Where the plan has
// a cross-stage memory dependence from stage a to stage b, a token queue
// links each pair of adjacent stages from a to b, so stage s+1 starts
// iteration i only after stage s finished it and the dependence rides the
// chain's happens-before (loop-carried dependences never cross stages —
// the aSCCDAG merges their endpoints into one SCC). A pair of stages no
// such dependence spans gets no token queue: nothing would consume the
// order it imposes, and every token costs a push and a pop per iteration.
//
// Per iteration, each stage pops its token (if its link exists) and its
// incoming values at the top of the loop body and pushes its outgoing
// values plus the next stage's token right before the back-branch; on
// exit it publishes its
// live-outs to environment cells and closes its queues, so a consumer
// expecting more values fails deterministically instead of parking
// forever. The dispatching function creates the queues in the
// pre-header, ships their handles through environment slots, and
// launches one worker per stage with noelle_dispatch — byte-identical
// output to the sequential fallback, for the same reasons dispatch
// itself is deterministic.

// xEdge is one cross-stage SSA dependence: the value flows from the
// stage owning val to stage to over a dedicated queue, once per
// iteration.
type xEdge struct {
	val  *ir.Instr
	from int
	to   int
}

// crossStageEdges lists the plan's cross-stage SSA dependences in
// deterministic (block, instruction, operand) order, deduplicated per
// (value, consuming stage).
func crossStageEdges(p *Plan) []xEdge {
	type key struct {
		val *ir.Instr
		to  int
	}
	seen := map[key]bool{}
	var edges []xEdge
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
				edges = append(edges, xEdge{val: d, from: s, to: t})
			}
		}
	}
	return edges
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

// CanLower checks whether a plan can be lowered to executable pipeline
// form: the canonical loop shape the generator handles, fully replicable
// control, communication points that execute exactly once per iteration,
// and no calls (stage-grouped execution would reorder their I/O).
func CanLower(p *Plan) error {
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
	if bodyTop(ls) == nil {
		return fmt.Errorf("no unique in-loop header successor")
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
	// Communication executes in the body-top and latch blocks; producers
	// must define their value on every iteration for the queues to stay
	// balanced.
	dom := analysis.NewDomTree(ls.Fn)
	for _, e := range crossStageEdges(p) {
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
// handles created in the pre-header (val per cross-stage edge, tok per
// adjacent stage pair, nil where the pair needs no token).
type queueOps struct {
	push, pop, close *ir.Function
	val, tok         []ir.Value
}

// transform rewrites the planned loop into NumStages dispatched stage
// workers connected by queues.
func transform(p *Plan, taskName string) {
	l := p.Loop
	m := p.n.Mod
	edges := crossStageEdges(p)

	i64 := ir.I64Type
	qcreate := m.DeclareFunction(interp.ExternQueueCreate, ir.FuncOf(i64, i64))
	qs := &queueOps{
		push:  m.DeclareFunction(interp.ExternQueuePush, ir.FuncOf(ir.VoidType, i64, i64)),
		pop:   m.DeclareFunction(interp.ExternQueuePop, ir.FuncOf(i64, i64)),
		close: m.DeclareFunction(interp.ExternQueueClose, ir.FuncOf(ir.VoidType, i64)),
	}
	o := loopbuilder.BeginOutline(m, p.LS, taskName)

	// ---- queue creation in the pre-header ----
	capVal := int64(p.queueCap)
	if capVal <= 0 {
		capVal = queue.DefaultCapacity
	}
	newQueue := func(name, role string) ir.Value {
		q := o.Bld.CreateCall(qcreate, []ir.Value{ir.ConstInt(capVal)}, name)
		o.Tag(q, verify.MDQueue, role)
		return q
	}
	qs.val = make([]ir.Value, len(edges))
	for i := range edges {
		qs.val[i] = newQueue(fmt.Sprintf("q%d", i), verify.QueueValue)
	}
	// tok[k] links stage k to stage k+1; nil where no cross-stage memory
	// dependence spans the pair (the comm tier's coverage check asks for
	// exactly the links a recorded dependence a>b spans: a <= k < b).
	memDeps := crossStageMemDeps(p)
	qs.tok = make([]ir.Value, p.NumStages-1)
	for _, d := range memDeps {
		for k := d[0]; k < d[1]; k++ {
			if qs.tok[k] == nil {
				qs.tok[k] = newQueue(fmt.Sprintf("tq%d", k), verify.QueueToken)
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
	stages := make([]*env.Task, p.NumStages)
	for s := range stages {
		stages[s] = o.NewTask(fmt.Sprintf("%s.stage%d", taskName, s), verify.KindDSWPStage)
		stages[s].Fn.SetMD(verify.MDStage, strconv.Itoa(s))
		buildStage(p, stages[s], edges, qs, s)
	}
	wrapper := o.NewTask(taskName, verify.KindDSWPWrapper)
	wrapper.Fn.SetMD(verify.MDStages, strconv.Itoa(p.NumStages))
	wrapper.Fn.SetMD(verify.MDMemDeps, memDepsMD(memDeps))
	buildWrapper(wrapper, stages)

	// ---- dispatch + live-out reconstruction ----
	o.Dispatch(wrapper.Fn, ir.ConstInt(int64(p.NumStages)))
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

// memDepsMD renders the dependences as the wrapper's noelle.memdeps
// metadata, which the comm linter checks the token chain against.
func memDepsMD(pairs [][2]int) string {
	parts := make([]string, len(pairs))
	for i, pr := range pairs {
		parts[i] = fmt.Sprintf("%d>%d", pr[0], pr[1])
	}
	return strings.Join(parts, ",")
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
// loop restricted to this stage's instructions plus the replicated
// control, pop incoming values at the body top, push outgoing values at
// the latch, publish live-outs and close outgoing queues on exit.
func buildStage(p *Plan, task *env.Task, edges []xEdge, qs *queueOps, s int) {
	ls, l := p.LS, p.Loop
	// Queue handles travel as ordinary live-ins.
	b := loopbuilder.NewBody(task, ls)
	bld := b.Bld
	b.Clone(func(in *ir.Instr) bool {
		return l.Clonable(in) || p.SegmentOf[in] == s
	})
	tokOut := s < p.NumStages-1 && qs.tok[s] != nil

	// Communication. Incoming pops sit at the top of the body (token
	// first: its pop carries the happens-before edge for cross-stage
	// memory dependences); outgoing pushes sit right before the
	// back-branch (after every store of the iteration), token last.
	btClone := b.Block(bodyTop(ls))
	bld.SetInsertionBefore(btClone.Instrs[btClone.FirstNonPhi()])
	if s > 0 && qs.tok[s-1] != nil {
		bld.CreateCall(qs.pop, []ir.Value{b.Map(qs.tok[s-1])}, "tok")
	}
	for i, ed := range edges {
		if ed.to != s {
			continue
		}
		raw := bld.CreateCall(qs.pop, []ir.Value{b.Map(qs.val[i])}, fmt.Sprintf("pop%d", i))
		b.Subst(ed.val, env.FromBits(bld, raw, ed.val.Type()))
	}
	bld.SetInsertionBefore(b.Block(ls.Latches[0]).Terminator())
	for i, ed := range edges {
		if ed.from == s {
			bld.CreateCall(qs.push, []ir.Value{b.Map(qs.val[i]), env.ToBits(bld, b.Instr(ed.val))}, "")
		}
	}
	if tokOut {
		bld.CreateCall(qs.push, []ir.Value{b.Map(qs.tok[s]), ir.ConstInt(1)}, "")
	}

	b.Wire()

	// done: publish this stage's live-outs, close outgoing queues, ret.
	bld.SetInsertionBlock(b.Done)
	for _, out := range l.LiveOut {
		if pubStageOf(p, out) == s {
			b.Publish(task.Env.SlotOf(out), b.Instr(out))
		}
	}
	for i, ed := range edges {
		if ed.from == s {
			bld.CreateCall(qs.close, []ir.Value{b.Map(qs.val[i])}, "")
		}
	}
	if tokOut {
		bld.CreateCall(qs.close, []ir.Value{b.Map(qs.tok[s])}, "")
	}
	bld.CreateRet(nil)
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

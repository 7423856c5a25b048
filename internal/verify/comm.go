package verify

// The comm tier: a protocol linter over lowered parallel plans. Every
// lowering declares its protocol in one record (Protocol, stamped as
// noelle.protocol on the noelle_dispatch call that runs it): the
// technique, a pipeline's stage functions in order (a DOALL or HELIX
// task is the function the call dispatches), a pipeline's K, its
// queues (slot, role, producer and consumer stage) and cross-stage
// memory dependences, a HELIX task's segment signals and carried cells.
// The linter checks the generated IR against that record. Mutations (and
// miscompiles) alter the IR, not the record, so a dropped token push or
// a swapped wait/fire shows up as a named protocol violation instead of
// a hang or a wrong answer at run time.
//
// Enforced protocol, per lowering:
//
//   - the record parses and is one a lowering could emit (ParseProtocol),
//     and its tasks are functions the module defines;
//   - the host ships every recorded queue and signal: it stores a create
//     of the right extern to the recorded slot of the environment it
//     dispatches;
//   - every queue is SPSC: pushed by its recorded producer stage only and
//     popped by its recorded consumer stage only;
//   - every communicating stage counts its position in the current chunk
//     in a header phi of the stage loop that runs 0..K-1 and wraps, with
//     one block that runs only on a chunk's first iteration and one that
//     runs only on its last;
//   - a value queue moves in bulk: the producer stores into a staging
//     buffer of K cells, at the counted position, exactly once per
//     iteration, pushes the buffer with one push_n of K in the
//     last-iteration block, and pushes what is staged of an unfinished
//     chunk with one push_n after the loop, before the close; the consumer
//     refills a buffer of K cells with one pop_n of the same K in the
//     first-iteration block and loads from it, at the counted position,
//     exactly once per iteration;
//   - a token queue carries one token per chunk: pushed where the value
//     queues are pushed (and once for an unfinished chunk), popped where
//     they are popped;
//   - each queue is closed exactly once, by its producer, after the
//     loop; no operation on a queue is reachable after its close;
//   - HELIX wait(w)/fire(w+1) brackets: one wait and one fire per
//     segment signal, each executing once per block (outside every loop
//     of the task), the wait ticket is the worker index, the fire ticket
//     is worker+1, and the wait dominates the fire (the happens-before
//     chain across workers stays acyclic); every access to a cell holding
//     a segment's carried state sits inside that segment's bracket;
//   - the token-queue chain covers every cross-stage memory dependence
//     the record lists, through links whose IR checks passed;
//   - DOALL task bodies are communication-free.

import (
	"fmt"
	"slices"

	"noelle/internal/analysis"
	"noelle/internal/interp"
	"noelle/internal/ir"
)

// lintComm checks every recorded lowering of m against its record.
func lintComm(m *ir.Module) []Finding {
	var fs []Finding
	for _, l := range Lowerings(m) {
		c := &checker{Lowering: l}
		switch {
		case l.Err != nil:
			c.find(l.Host.Nam, "malformed %s record: %v", MDProtocol, l.Err)
		case l.Proto.Technique == DOALL:
			c.doall()
		case l.Proto.Technique == DSWP:
			c.dswp()
		default:
			c.helix()
		}
		fs = append(fs, c.fs...)
	}
	return fs
}

// checker lints one lowering against its record.
type checker struct {
	*Lowering
	fs []Finding
}

func (c *checker) find(fn, format string, args ...interface{}) {
	c.fs = append(c.fs, Finding{Tier: TierComm, Fn: fn, Detail: fmt.Sprintf(format, args...)})
}

// shipped reports whether the host stores a call to create into slot of
// the environment it dispatches, and names the channel (what) when not.
func (c *checker) shipped(create string, slot int64, what string) bool {
	env := c.Call.CallArgs()[1]
	if a, _ := env.(*ir.Instr); a != nil && a.Opcode == ir.OpAlloca && slot >= int64(a.AllocaCount) {
		c.find(c.Host.Nam, "%s is outside the %d-cell environment", what, a.AllocaCount)
		return false
	}
	found := false
	c.Host.Instrs(func(in *ir.Instr) bool {
		if in.Opcode != ir.OpStore || len(in.Ops) != 2 {
			return true
		}
		v, _ := in.Ops[0].(*ir.Instr)
		addr, _ := in.Ops[1].(*ir.Instr)
		if v != nil && addr != nil && v.Opcode == ir.OpCall && addr.Opcode == ir.OpPtrAdd && addr.Ops[0] == env {
			callee := v.CalledFunction()
			found = callee != nil && callee.Nam == create && isConstInt(addr.Ops[1], slot)
		}
		return !found
	})
	if !found {
		c.find(c.Host.Nam, "%s is created but never shipped to an environment slot (orphaned)", what)
	}
	return found
}

// commOp is one queue/signal operation a task issues, resolved to the
// environment slot its handle came from.
type commOp struct {
	instr *ir.Instr
	name  string // extern name
	stage int    // the issuing stage, in a pipeline
}

// taskOps indexes a task function's communication operations by handle
// slot, with the dominator tree and loop info for placement checks.
type taskOps struct {
	fn  *ir.Function
	ops map[int64][]*commOp
	dom *analysis.DomTree
	li  *analysis.LoopInfo
	// chunks is the stage's chunk structure (DSWP stages only); nil when
	// the IR has none.
	chunks *chunking
}

// scanTask resolves fn's communication calls to environment slots. A
// handle is recognized through the lowering's access pattern:
// load(ptradd(envParam, const slot)).
func scanTask(fn *ir.Function) *taskOps {
	t := &taskOps{fn: fn, ops: map[int64][]*commOp{}, dom: analysis.NewDomTree(fn), li: analysis.NewLoopInfo(fn)}
	if len(fn.Params) == 0 {
		return t
	}
	envp := ir.Value(fn.Params[0])
	handleSlot := map[ir.Value]int64{}
	fn.Instrs(func(in *ir.Instr) bool {
		if in.Opcode != ir.OpLoad || len(in.Ops) != 1 {
			return true
		}
		pa, ok := in.Ops[0].(*ir.Instr)
		if !ok || pa.Opcode != ir.OpPtrAdd || pa.Ops[0] != envp {
			return true
		}
		if c, ok := pa.Ops[1].(*ir.Const); ok {
			handleSlot[in] = c.Int
		}
		return true
	})
	fn.Instrs(func(in *ir.Instr) bool {
		if in.Opcode != ir.OpCall {
			return true
		}
		callee := in.CalledFunction()
		if callee == nil || !isCommExtern(callee.Nam) {
			return true
		}
		args := in.CallArgs()
		if len(args) == 0 {
			return true
		}
		slot, ok := handleSlot[args[0]]
		if !ok {
			return true
		}
		t.ops[slot] = append(t.ops[slot], &commOp{instr: in, name: callee.Nam})
		return true
	})
	t.chunks = t.chunking()
	return t
}

func isCommExtern(name string) bool {
	switch name {
	case interp.ExternQueuePush, interp.ExternQueuePop, interp.ExternQueuePushN, interp.ExternQueuePopN,
		interp.ExternQueueClose, interp.ExternSignalWait, interp.ExternSignalFire:
		return true
	}
	return false
}

// oncePerIteration reports whether in executes exactly once per
// iteration of loop l: in one of l's own blocks (not in a loop nested in
// it), dominating every latch. This is the balance condition — a staging
// access placed here happens once along every path through the stage
// body.
func (t *taskOps) oncePerIteration(in *ir.Instr, l *analysis.NaturalLoop) bool {
	if t.li.LoopOf(in.Parent) != l {
		return false
	}
	for _, latch := range l.Latches {
		if !t.dom.Dominates(in.Parent, latch) {
			return false
		}
	}
	return true
}

// chunking is a DSWP stage's chunk structure, re-derived from its IR.
type chunking struct {
	// pos counts the iterations of the current chunk: a phi in the header
	// of loop, 0 on entry, and around the back edge pos+1 or, once that
	// equals k, 0 again.
	pos  *ir.Instr
	loop *analysis.NaturalLoop
	k    int64
	// begin is entered from a test pos == 0 and nowhere else, end from the
	// test pos+1 == k that wraps the counter: they run once per chunk, on
	// its first and on its last iteration. begin is nil in a stage that
	// receives nothing.
	begin, end *ir.Block
}

func isConstInt(v ir.Value, want int64) bool {
	c, ok := v.(*ir.Const)
	return ok && c.Int == want
}

// chunking finds the stage's position counter and the blocks hanging off
// its tests.
func (t *taskOps) chunking() *chunking {
	var c *chunking
	t.fn.Instrs(func(phi *ir.Instr) bool {
		c = t.counterAt(phi)
		return c == nil
	})
	if c != nil {
		for b := range c.loop.Blocks {
			preds := b.Preds()
			if len(preds) != 1 {
				continue
			}
			guard := preds[0].Terminator()
			if guard.Opcode != ir.OpCondBr || guard.Blocks[0] != b {
				continue
			}
			first, _ := guard.Ops[0].(*ir.Instr)
			if first != nil && first.Opcode == ir.OpEq && first.Ops[0] == ir.Value(c.pos) && isConstInt(first.Ops[1], 0) {
				c.begin = b
			}
		}
	}
	return c
}

// counterAt matches phi against the position counter's shape.
func (t *taskOps) counterAt(phi *ir.Instr) *chunking {
	if phi.Opcode != ir.OpPhi || len(phi.Ops) != 2 {
		return nil
	}
	l := t.li.LoopOf(phi.Parent)
	if l == nil || l.Header != phi.Parent {
		return nil
	}
	var wrap *ir.Instr
	for i, from := range phi.Blocks {
		if l.Contains(from) {
			wrap, _ = phi.Ops[i].(*ir.Instr)
		} else if !isConstInt(phi.Ops[i], 0) {
			return nil
		}
	}
	if wrap == nil || wrap.Opcode != ir.OpPhi || len(wrap.Ops) != 2 {
		return nil
	}
	var next ir.Value
	var stay, end *ir.Block
	for i, v := range wrap.Ops {
		if isConstInt(v, 0) {
			end = wrap.Blocks[i]
		} else if isPlusOne(v, phi) {
			next, stay = v, wrap.Blocks[i]
		}
	}
	if next == nil || end == nil {
		return nil
	}
	guard := stay.Terminator()
	if guard == nil || guard.Opcode != ir.OpCondBr || guard.Blocks[0] != end || guard.Blocks[1] != wrap.Parent {
		return nil
	}
	full, _ := guard.Ops[0].(*ir.Instr)
	if full == nil || full.Opcode != ir.OpEq || full.Ops[0] != next {
		return nil
	}
	k, ok := full.Ops[1].(*ir.Const)
	if !ok || k.Int < 1 || len(end.Preds()) != 1 {
		return nil
	}
	return &chunking{pos: phi, loop: l, k: k.Int, end: end}
}

// staging finds the accesses with opcode op (load or store) to cells of
// buf: their address is ptradd(buf, index).
func (t *taskOps) staging(buf ir.Value, op ir.Op) []*ir.Instr {
	var out []*ir.Instr
	t.fn.Instrs(func(in *ir.Instr) bool {
		if in.Opcode == op {
			addr, _ := in.Ops[len(in.Ops)-1].(*ir.Instr)
			if addr != nil && addr.Opcode == ir.OpPtrAdd && addr.Ops[0] == buf {
				out = append(out, in)
			}
		}
		return true
	})
	return out
}

// outsideLoops reports whether in sits outside every loop of its task.
func (t *taskOps) outsideLoops(in *ir.Instr) bool {
	return t.li.LoopOf(in.Parent) == nil
}

// reachableAfter returns the ops of others that can execute after from:
// later in from's block, or in any block reachable from its successors.
func reachableAfter(from *ir.Instr, others []*commOp) []*commOp {
	blk := from.Parent
	after := map[*ir.Block]bool{}
	stack := append([]*ir.Block{}, blk.Successors()...)
	for len(stack) > 0 {
		b := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if after[b] {
			continue
		}
		after[b] = true
		stack = append(stack, b.Successors()...)
	}
	idx := blk.IndexOf(from)
	var out []*commOp
	for _, o := range others {
		if o.instr == from {
			continue
		}
		if after[o.instr.Parent] || (o.instr.Parent == blk && blk.IndexOf(o.instr) > idx) {
			out = append(out, o)
		}
	}
	return out
}

// dswp checks a pipeline: SPSC queue discipline against the recorded
// stages, the chunked transfer protocol, the close protocol, and token
// coverage of the recorded cross-stage memory dependences.
func (c *checker) dswp() {
	host := c.Host.Nam
	scans := make([]*taskOps, len(c.Tasks))
	for s, f := range c.Tasks {
		scans[s] = scanTask(f)
	}
	stage := func(s int) string { return c.Tasks[s].Nam }

	// tokenLinks[s] is set when a verified token queue orders stage s
	// before stage s+1 — the happens-before the memory-dependence
	// coverage check below consumes.
	tokenLinks := map[int]bool{}

	for _, q := range c.Proto.Queues {
		role := q.Role()
		if !c.shipped(interp.ExternQueueCreate, q.Slot, fmt.Sprintf("%s queue (slot %d)", role, q.Slot)) {
			continue
		}
		// Gather this queue's ops across the stages.
		var pushes, pops, closes []*commOp
		for s, scan := range scans {
			for _, o := range scan.ops[q.Slot] {
				o.stage = s
				switch o.name {
				case interp.ExternQueuePush, interp.ExternQueuePushN:
					pushes = append(pushes, o)
				case interp.ExternQueuePop, interp.ExternQueuePopN:
					pops = append(pops, o)
				case interp.ExternQueueClose:
					closes = append(closes, o)
				}
			}
		}
		pushStages := stageSet(pushes)
		popStages := stageSet(pops)

		// SPSC: the recorded producer pushes, the recorded consumer pops,
		// and no other stage does either.
		switch {
		case len(pushStages) == 0 && len(popStages) == 0:
			c.find(host, "%s queue (slot %d) is shipped but no stage pushes or pops it", role, q.Slot)
			continue
		case len(pushStages) == 0:
			c.find(stage(popStages[0]), "%s queue (slot %d) is popped by stage %d but never pushed", role, q.Slot, popStages[0])
			continue
		case len(popStages) == 0:
			c.find(stage(pushStages[0]), "%s queue (slot %d) is pushed by stage %d but never popped", role, q.Slot, pushStages[0])
			continue
		case len(pushStages) > 1 || pushStages[0] != q.From:
			c.find(host, "%s queue (slot %d) has producers in stages %v (SPSC wants exactly stage %d)", role, q.Slot, pushStages, q.From)
			continue
		case len(popStages) > 1 || popStages[0] != q.To:
			c.find(host, "%s queue (slot %d) has consumers in stages %v (SPSC wants exactly stage %d)", role, q.Slot, popStages, q.To)
			continue
		}
		prod := q.From

		// One transfer per chunk on each side, plus the producer's short
		// last one; a value queue moves staged buffers, a token queue one
		// token.
		linkOK := c.chunked(q, scans[prod], scans[q.To], pushes, pops)

		// Close protocol: the producer closes, exactly once, after its
		// loop, and nothing touches the queue past the close.
		prodCloses := 0
		for _, cl := range closes {
			if cl.stage != prod {
				c.find(stage(cl.stage), "%s queue (slot %d) is closed by stage %d, not its producer stage %d",
					role, q.Slot, cl.stage, prod)
			} else {
				prodCloses++
			}
		}
		switch {
		case prodCloses == 0:
			c.find(stage(prod), "%s queue (slot %d) is never closed by its producer (stage %d)", role, q.Slot, prod)
		case prodCloses > 1:
			c.find(stage(prod), "%s queue (slot %d) is closed %d times (double close)", role, q.Slot, prodCloses)
		}
		for _, cl := range closes {
			if !scans[cl.stage].outsideLoops(cl.instr) {
				c.find(stage(cl.stage), "close of %s queue (slot %d) executes inside the stage loop", role, q.Slot)
			}
			for _, o := range reachableAfter(cl.instr, scans[cl.stage].ops[q.Slot]) {
				if o.name == interp.ExternQueueClose {
					continue // the double close above already names this
				}
				c.find(stage(cl.stage), "@%s of %s queue (slot %d) is reachable after its close", o.name, role, q.Slot)
			}
		}

		if q.Token && linkOK {
			tokenLinks[prod] = true
		}
	}

	// Token coverage: each recorded cross-stage memory dependence needs
	// the complete chain of token links between its endpoints to carry
	// the happens-before.
	for _, d := range c.Proto.MemDeps {
		for k := d[0]; k < d[1]; k++ {
			if !tokenLinks[k] {
				c.find(host, "cross-stage memory dependence %d>%d is not covered by the token chain (missing token link %d>%d)",
					d[0], d[1], k, k+1)
				break
			}
		}
	}
}

// chunked checks queue q's transfers against the chunk structure of its
// two stages and reports whether they hold up.
func (c *checker) chunked(q Queue, ps, cs *taskOps, pushes, pops []*commOp) bool {
	prod, cons, chunk, role := q.From, q.To, c.Proto.K, q.Role()
	pfn, cfn := ps.fn.Nam, cs.fn.Nam
	ok := true
	bad := func(fn, format string, args ...interface{}) {
		c.find(fn, format, args...)
		ok = false
	}
	wantPush, wantPop := interp.ExternQueuePushN, interp.ExternQueuePopN
	if q.Token {
		wantPush, wantPop = interp.ExternQueuePush, interp.ExternQueuePop
	}
	for _, o := range append(append([]*commOp{}, pushes...), pops...) {
		if o.name != wantPush && o.name != wantPop {
			bad(c.Tasks[o.stage].Nam, "%s queue (slot %d) is moved by @%s in stage %d (want @%s and @%s)",
				role, q.Slot, o.name, o.stage, wantPush, wantPop)
		}
	}
	pc, cc := ps.chunks, cs.chunks
	if pc == nil {
		bad(pfn, "stage %d has no chunk position counter (a header phi counting 0..K-1 and wrapping)", prod)
	}
	if cc == nil {
		bad(cfn, "stage %d has no chunk position counter (a header phi counting 0..K-1 and wrapping)", cons)
	}
	if !ok {
		return false
	}

	var perChunk, tail []*commOp
	for _, p := range pushes {
		if ps.outsideLoops(p.instr) {
			tail = append(tail, p)
		} else {
			perChunk = append(perChunk, p)
		}
	}
	if len(perChunk) != 1 {
		bad(pfn, "stage %d pushes %s queue (slot %d) %d times per chunk (want exactly once)", prod, role, q.Slot, len(perChunk))
	} else if perChunk[0].instr.Parent != pc.end {
		bad(pfn, "push of %s queue (slot %d) does not execute exactly once per chunk", role, q.Slot)
	}
	switch {
	case len(tail) == 0:
		bad(pfn, "tail chunk of %s queue (slot %d) is never pushed (want one push after the loop, before the close)", role, q.Slot)
	case len(tail) > 1:
		bad(pfn, "tail chunk of %s queue (slot %d) is pushed %d times after the loop", role, q.Slot, len(tail))
	}
	if len(pops) != 1 {
		bad(cfn, "stage %d pops %s queue (slot %d) %d times per chunk (want exactly once)", cons, role, q.Slot, len(pops))
	} else if pops[0].instr.Parent != cc.begin {
		bad(cfn, "pop of %s queue (slot %d) does not execute exactly once per chunk", role, q.Slot)
	}
	if !ok || q.Token {
		return ok
	}

	push, last, pop := perChunk[0].instr.CallArgs(), tail[0].instr.CallArgs(), pops[0].instr.CallArgs()
	pushK, popK := bulkCount(push), bulkCount(pop)
	switch {
	case pushK != popK:
		bad(c.Host.Nam, "chunk-size mismatch on value queue (slot %d): stage %d pushes %d values per chunk, stage %d pops %d",
			q.Slot, prod, pushK, cons, popK)
	case pushK != chunk || pc.k != chunk || cc.k != chunk:
		bad(c.Host.Nam, "value queue (slot %d) moves %d values per chunk between counters wrapping at %d and %d, the pipeline's chunk is %d",
			q.Slot, pushK, pc.k, cc.k, chunk)
	}
	if last[1] != push[1] || last[2] != ir.Value(pc.pos) {
		bad(pfn, "tail push of value queue (slot %d) does not push the staged part of its buffer", q.Slot)
	}
	lintStaging(bad, q.Slot, ps, pc, prod, push[1], ir.OpStore, "store")
	lintStaging(bad, q.Slot, cs, cc, cons, pop[1], ir.OpLoad, "load")
	return ok
}

// bulkCount is the constant count of a push_n or pop_n, -1 when it is not
// a constant.
func bulkCount(args []ir.Value) int64 {
	if c, ok := args[2].(*ir.Const); ok {
		return c.Int
	}
	return -1
}

// lintStaging checks one end of a value queue: a buffer of the chunk's
// size, accessed at the counted position exactly once per iteration.
func lintStaging(bad func(fn, format string, args ...interface{}), slot int64, t *taskOps, c *chunking, stage int,
	buf ir.Value, op ir.Op, verb string) {
	if a, _ := buf.(*ir.Instr); a == nil || a.Opcode != ir.OpAlloca || int64(a.AllocaCount) != c.k {
		bad(t.fn.Nam, "staging buffer of value queue (slot %d) in stage %d is not a stage-local buffer of %d cells", slot, stage, c.k)
		return
	}
	accesses := t.staging(buf, op)
	if len(accesses) != 1 {
		bad(t.fn.Nam, "stage %d has %d staging %ss for value queue (slot %d) (want exactly one)", stage, len(accesses), verb, slot)
		return
	}
	in := accesses[0]
	if !t.oncePerIteration(in, c.loop) {
		bad(t.fn.Nam, "staging %s of value queue (slot %d) does not execute exactly once per iteration", verb, slot)
	}
	if addr := in.Ops[len(in.Ops)-1].(*ir.Instr); addr.Ops[1] != ir.Value(c.pos) {
		bad(t.fn.Nam, "staging %s of value queue (slot %d) is not at the chunk position", verb, slot)
	}
}

// stageSet returns the distinct, ordered stages issuing ops.
func stageSet(ops []*commOp) []int {
	var out []int
	for _, o := range ops {
		out = append(out, o.stage)
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// helix checks a per-block task: each recorded segment signal is
// bracketed by exactly one wait(worker) and one fire(worker+1), both
// outside the task's loops (once per block), with the wait dominating the
// fire so the cross-worker happens-before chain stays acyclic, and each
// recorded carried cell is touched only inside its segment's bracket.
func (c *checker) helix() {
	task := c.Tasks[0]
	if len(task.Params) < 2 {
		c.find(task.Nam, "helix task does not have the (env, worker, nworkers) signature")
		return
	}
	scan := scanTask(task)
	worker := ir.Value(task.Params[1])
	type bracket struct{ wait, fire *ir.Instr }
	brackets := map[int]bracket{}

	for _, sig := range c.Proto.Signals {
		s := sig.Seg
		if !c.shipped(interp.ExternSignalCreate, sig.Slot, fmt.Sprintf("signal for segment %d (slot %d)", s, sig.Slot)) {
			continue
		}
		var waits, fires []*commOp
		for _, o := range scan.ops[sig.Slot] {
			switch o.name {
			case interp.ExternSignalWait:
				waits = append(waits, o)
			case interp.ExternSignalFire:
				fires = append(fires, o)
			}
		}
		switch {
		case len(waits) == 0 && len(fires) == 0:
			c.find(task.Nam, "signal for segment %d is never awaited or fired", s)
			continue
		case len(waits) == 0:
			c.find(task.Nam, "signal for segment %d is fired but never awaited", s)
			continue
		case len(fires) == 0:
			c.find(task.Nam, "signal for segment %d is awaited but never fired (later workers would wait forever)", s)
			continue
		case len(waits) > 1:
			c.find(task.Nam, "signal for segment %d is awaited %d times (want exactly once)", s, len(waits))
			continue
		case len(fires) > 1:
			c.find(task.Nam, "signal for segment %d is fired %d times (want exactly once)", s, len(fires))
			continue
		}
		wait, fire := waits[0], fires[0]
		if args := wait.instr.CallArgs(); len(args) == 2 && args[1] != worker {
			c.find(task.Nam, "wait ticket of segment %d signal is not the worker index", s)
		}
		if args := fire.instr.CallArgs(); len(args) == 2 && !isPlusOne(args[1], worker) {
			c.find(task.Nam, "fire ticket of segment %d signal is not worker+1", s)
		}
		if !scan.dom.DominatesInstr(wait.instr, fire.instr) {
			c.find(task.Nam, "fire of segment %d signal precedes its wait (happens-before chain is cyclic)", s)
		}
		for _, o := range []*commOp{wait, fire} {
			if !scan.outsideLoops(o.instr) {
				c.find(task.Nam, "@%s of segment %d signal sits in a loop of the task (want once per block)", o.name, s)
			}
		}
		brackets[s] = bracket{wait.instr, fire.instr}
	}

	// Carried state: a cell's reload must follow its segment's wait and
	// its write-back precede the fire, or a neighbouring block reads a
	// stale value (or overwrites a fresh one).
	carried := map[int64]int{}
	for _, cell := range c.Proto.Carried {
		carried[cell.Slot] = cell.Seg
	}
	task.Instrs(func(in *ir.Instr) bool {
		var addr ir.Value
		switch in.Opcode {
		case ir.OpLoad:
			addr = in.Ops[0]
		case ir.OpStore:
			addr = in.Ops[1]
		}
		pa, _ := addr.(*ir.Instr)
		if pa == nil || pa.Opcode != ir.OpPtrAdd || pa.Ops[0] != ir.Value(task.Params[0]) {
			return true
		}
		cell, _ := pa.Ops[1].(*ir.Const)
		if cell == nil {
			return true
		}
		seg, isCarried := carried[cell.Int]
		br, bracketed := brackets[seg]
		if isCarried && bracketed &&
			!(scan.dom.DominatesInstr(br.wait, in) && scan.dom.DominatesInstr(in, br.fire)) {
			c.find(task.Nam, "carried state of segment %d (environment cell %d) is accessed outside the segment's wait/fire bracket", seg, cell.Int)
		}
		return true
	})
}

// isPlusOne matches add(x, 1): the fire ticket over the worker index, the
// chunk position's successor.
func isPlusOne(v ir.Value, x ir.Value) bool {
	in, ok := v.(*ir.Instr)
	if !ok || in.Opcode != ir.OpAdd || len(in.Ops) != 2 {
		return false
	}
	for i, op := range in.Ops {
		if op != x {
			continue
		}
		if c, ok := in.Ops[1-i].(*ir.Const); ok && c.Int == 1 {
			return true
		}
	}
	return false
}

// doall checks that the task body stays communication-free:
// embarrassingly-parallel workers have no business touching queues or
// signals.
func (c *checker) doall() {
	task := c.Tasks[0]
	task.Instrs(func(in *ir.Instr) bool {
		if in.Opcode != ir.OpCall {
			return true
		}
		if callee := in.CalledFunction(); callee != nil && isCommExtern(callee.Nam) {
			c.find(task.Nam, "doall task calls communication extern @%s (DOALL bodies must be communication-free)", callee.Nam)
		}
		return true
	})
}

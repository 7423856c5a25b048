package verify

// The comm tier: a protocol linter over lowered parallel plans. The
// taskgens stamp their intent as metadata — which functions form a
// pipeline family, which queue carries tokens for which stage pair,
// which signal guards which sequential segment — and the linter
// cross-checks the generated IR against that declared intent. Mutations
// (and miscompiles) alter the IR, not the metadata, so a dropped token
// push or a swapped wait/fire shows up as a named protocol violation
// instead of a hang or a wrong answer at run time.
//
// Enforced protocol, per pipeline family:
//
//   - every queue is SPSC: exactly one producing stage and one consuming
//     stage, and the value flows forward through the pipeline;
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
//     the plan recorded;
//   - DOALL task bodies are communication-free.
//
// Code without family metadata is outside the linter's jurisdiction: the
// comm tier constrains what the taskgens emit, not what users write.

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"noelle/internal/analysis"
	"noelle/internal/interp"
	"noelle/internal/ir"
)

// Metadata keys the taskgens stamp on their output for the comm linter.
const (
	// MDKind marks a generated function's role (on functions).
	MDKind = "noelle.kind"
	// MDFamily names the lowering family — the task name passed to the
	// lowerer — on every generated function and on each queue/signal
	// create call, tying a pipeline's parts together.
	MDFamily = "noelle.family"
	// MDStage is a DSWP stage function's stage index.
	MDStage = "noelle.stage"
	// MDStages is the stage count, on the DSWP wrapper.
	MDStages = "noelle.stages"
	// MDSegments is the sequential-segment count, on a HELIX task.
	MDSegments = "noelle.segments"
	// MDCarried lists, on a HELIX task, the environment cells holding
	// carried sequential state as "slot:segment" pairs, comma-separated
	// ("" when none).
	MDCarried = "noelle.carried"
	// MDMemDeps lists the plan's cross-stage memory dependences on the
	// DSWP wrapper as "from>to" pairs, comma-separated ("" when none).
	MDMemDeps = "noelle.memdeps"
	// MDChunk is, on the DSWP wrapper, the iterations one bulk queue
	// operation of the pipeline moves.
	MDChunk = "noelle.chunk"
	// MDQueue marks a noelle_queue_create call as QueueToken or
	// QueueValue.
	MDQueue = "noelle.queue"
	// MDSignal marks a noelle_signal_create call with the index of the
	// sequential segment it guards.
	MDSignal = "noelle.signal"
)

// MDKind values.
const (
	KindDSWPWrapper = "dswp-wrapper"
	KindDSWPStage   = "dswp-stage"
	KindHelixTask   = "helix-task"
	KindDoallTask   = "doall-task"
)

// MDQueue values.
const (
	QueueToken = "token"
	QueueValue = "value"
)

// channel is one queue or signal created by a lowering: the create call,
// the function it lives in, its declared role, and the environment slot
// its handle is shipped through (-1 when no store ships it).
type channel struct {
	create *ir.Instr
	host   *ir.Function
	role   string
	slot   int64
}

// family groups one lowering's functions and channels under its task
// name.
type family struct {
	name    string
	wrapper *ir.Function
	stages  map[int]*ir.Function
	helix   *ir.Function
	queues  []*channel
	signals []*channel
}

// lintComm runs the protocol linter over every lowering family in m.
func lintComm(m *ir.Module) []Finding {
	fams, fs := collectFamilies(m)
	names := make([]string, 0, len(fams))
	for name := range fams {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fam := fams[name]
		if fam.wrapper != nil || len(fam.stages) > 0 || len(fam.queues) > 0 {
			fs = append(fs, lintDSWP(fam)...)
		}
		if fam.helix != nil || len(fam.signals) > 0 {
			fs = append(fs, lintHELIX(fam)...)
		}
	}
	fs = append(fs, lintDOALL(m)...)
	return fs
}

// collectFamilies gathers the metadata-stamped functions and channel
// creates of m, grouped by family name.
func collectFamilies(m *ir.Module) (map[string]*family, []Finding) {
	var fs []Finding
	fams := map[string]*family{}
	fam := func(name string) *family {
		f, ok := fams[name]
		if !ok {
			f = &family{name: name, stages: map[int]*ir.Function{}}
			fams[name] = f
		}
		return f
	}
	for _, f := range m.Functions {
		if f.IsDeclaration() {
			continue
		}
		name := f.MD.Get(MDFamily)
		if name == "" {
			name = f.Nam
		}
		switch f.MD.Get(MDKind) {
		case KindDSWPWrapper:
			fam(name).wrapper = f
		case KindDSWPStage:
			s, err := strconv.Atoi(f.MD.Get(MDStage))
			if err != nil || s < 0 {
				fs = append(fs, Finding{Tier: TierComm, Fn: f.Nam,
					Detail: fmt.Sprintf("dswp stage function has invalid %s=%q", MDStage, f.MD.Get(MDStage))})
				continue
			}
			fam(name).stages[s] = f
		case KindHelixTask:
			fam(name).helix = f
		}
	}
	m.Instrs(func(host *ir.Function, in *ir.Instr) bool {
		if in.Opcode != ir.OpCall {
			return true
		}
		callee := in.CalledFunction()
		if callee == nil {
			return true
		}
		name := in.MD.Get(MDFamily)
		switch {
		case callee.Nam == interp.ExternQueueCreate && in.MD.Has(MDQueue):
			if name == "" {
				return true // untracked queue: outside the linter's jurisdiction
			}
			fam(name).queues = append(fam(name).queues, &channel{
				create: in, host: host, role: in.MD.Get(MDQueue), slot: shippedSlot(host, in),
			})
		case callee.Nam == interp.ExternSignalCreate && in.MD.Has(MDSignal):
			if name == "" {
				return true
			}
			fam(name).signals = append(fam(name).signals, &channel{
				create: in, host: host, role: in.MD.Get(MDSignal), slot: shippedSlot(host, in),
			})
		}
		return true
	})
	for _, f := range fams {
		sortChannels(f.queues)
		sortChannels(f.signals)
	}
	return fams, fs
}

// sortChannels orders channels by environment slot, unshipped (-1) last.
func sortChannels(chs []*channel) {
	sort.SliceStable(chs, func(i, j int) bool {
		a, b := chs[i].slot, chs[j].slot
		if (a < 0) != (b < 0) {
			return b < 0
		}
		return a < b
	})
}

// shippedSlot finds the environment slot a channel handle is stored to:
// store create, ptradd(env, const slot). -1 when no such store exists —
// an orphaned channel no task can ever reach.
func shippedSlot(host *ir.Function, create *ir.Instr) int64 {
	slot := int64(-1)
	host.Instrs(func(in *ir.Instr) bool {
		if in.Opcode != ir.OpStore || len(in.Ops) != 2 || in.Ops[0] != ir.Value(create) {
			return true
		}
		addr, ok := in.Ops[1].(*ir.Instr)
		if !ok || addr.Opcode != ir.OpPtrAdd {
			return true
		}
		if c, ok := addr.Ops[1].(*ir.Const); ok {
			slot = c.Int
			return false
		}
		return true
	})
	return slot
}

// commOp is one queue/signal operation a task issues, resolved to the
// environment slot its handle came from.
type commOp struct {
	instr *ir.Instr
	name  string // extern name
}

// taskOps indexes a task function's communication operations by handle
// slot, with lazily-built dominator tree and loop info for placement
// checks.
type taskOps struct {
	fn  *ir.Function
	ops map[int64][]*commOp
	dom *analysis.DomTree
	li  *analysis.LoopInfo
	// chunks is the stage's chunk structure (DSWP stages only), derived
	// on first use; nil when the IR has none.
	chunks     *chunking
	chunksDone bool
}

// scanTask resolves fn's communication calls to environment slots. A
// handle is recognized through the lowering's access pattern:
// load(ptradd(envParam, const slot)).
func scanTask(fn *ir.Function) *taskOps {
	t := &taskOps{fn: fn, ops: map[int64][]*commOp{}}
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

func (t *taskOps) domTree() *analysis.DomTree {
	if t.dom == nil {
		t.dom = analysis.NewDomTree(t.fn)
	}
	return t.dom
}

func (t *taskOps) loops() *analysis.LoopInfo {
	if t.li == nil {
		t.li = analysis.NewLoopInfo(t.fn)
	}
	return t.li
}

// oncePerIteration reports whether in executes exactly once per
// iteration of loop l: in one of l's own blocks (not in a loop nested in
// it), dominating every latch. This is the balance condition — a staging
// access placed here happens once along every path through the stage
// body.
func (t *taskOps) oncePerIteration(in *ir.Instr, l *analysis.NaturalLoop) bool {
	if t.loops().LoopOf(in.Parent) != l {
		return false
	}
	for _, latch := range l.Latches {
		if !t.domTree().Dominates(in.Parent, latch) {
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
	if t.chunksDone {
		return t.chunks
	}
	t.chunksDone = true
	t.fn.Instrs(func(phi *ir.Instr) bool {
		t.chunks = t.counterAt(phi)
		return t.chunks == nil
	})
	if c := t.chunks; c != nil {
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
	return t.chunks
}

// counterAt matches phi against the position counter's shape.
func (t *taskOps) counterAt(phi *ir.Instr) *chunking {
	l := t.loops().LoopOf(phi.Parent)
	if phi.Opcode != ir.OpPhi || len(phi.Ops) != 2 || l == nil || l.Header != phi.Parent {
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
	return t.loops().LoopOf(in.Parent) == nil
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

func opVerb(extern string) string {
	switch extern {
	case interp.ExternQueuePush, interp.ExternQueuePushN:
		return "push"
	case interp.ExternQueuePop, interp.ExternQueuePopN:
		return "pop"
	case interp.ExternQueueClose:
		return "close"
	case interp.ExternSignalWait:
		return "wait"
	case interp.ExternSignalFire:
		return "fire"
	}
	return extern
}

// lintDSWP checks one pipeline family: SPSC queue discipline, the chunked
// transfer protocol, the close protocol, and token coverage of the plan's
// cross-stage memory dependences.
func lintDSWP(fam *family) []Finding {
	var fs []Finding
	find := func(fn, format string, args ...interface{}) {
		fs = append(fs, Finding{Tier: TierComm, Fn: fn, Detail: fmt.Sprintf(format, args...)})
	}

	if fam.wrapper == nil {
		find("", "dswp family %q has stages or queues but no wrapper function", fam.name)
		return fs
	}
	w := fam.wrapper
	n, err := strconv.Atoi(w.MD.Get(MDStages))
	if err != nil || n < 2 {
		find(w.Nam, "dswp wrapper has invalid %s=%q", MDStages, w.MD.Get(MDStages))
		return fs
	}
	missing := false
	for s := 0; s < n; s++ {
		if fam.stages[s] == nil {
			find(w.Nam, "pipeline stage %d of %d has no stage function", s, n)
			missing = true
		}
	}
	if missing {
		return fs
	}

	scans := make([]*taskOps, n)
	for s := 0; s < n; s++ {
		scans[s] = scanTask(fam.stages[s])
	}
	chunk, err := strconv.ParseInt(w.MD.Get(MDChunk), 10, 64)
	if err != nil || chunk < 1 {
		find(w.Nam, "dswp wrapper has invalid %s=%q", MDChunk, w.MD.Get(MDChunk))
		return fs
	}

	// tokenLinks[s] is set when a verified token queue orders stage s
	// before stage s+1 — the happens-before the memory-dependence
	// coverage check below consumes.
	tokenLinks := map[int]bool{}

	for _, q := range fam.queues {
		if q.slot < 0 {
			find(q.host.Nam, "%s queue %s is created but never shipped to an environment slot (orphaned)",
				q.role, q.create.Ident())
			continue
		}
		// Gather this queue's ops across the stages.
		var pushes, pops, closes []stagedOp
		for s := 0; s < n; s++ {
			for _, o := range scans[s].ops[q.slot] {
				so := stagedOp{stage: s, op: o}
				switch o.name {
				case interp.ExternQueuePush, interp.ExternQueuePushN:
					pushes = append(pushes, so)
				case interp.ExternQueuePop, interp.ExternQueuePopN:
					pops = append(pops, so)
				case interp.ExternQueueClose:
					closes = append(closes, so)
				}
			}
		}
		pushStages := stageSet(pushes)
		popStages := stageSet(pops)

		// SPSC: exactly one producing stage, exactly one consuming stage.
		switch {
		case len(pushStages) == 0 && len(popStages) == 0:
			find(w.Nam, "%s queue (slot %d) is shipped but no stage pushes or pops it", q.role, q.slot)
			continue
		case len(pushStages) == 0:
			find(fam.stages[popStages[0]].Nam,
				"%s queue (slot %d) is popped by stage %d but never pushed", q.role, q.slot, popStages[0])
			continue
		case len(popStages) == 0:
			find(fam.stages[pushStages[0]].Nam,
				"%s queue (slot %d) is pushed by stage %d but never popped", q.role, q.slot, pushStages[0])
			continue
		case len(pushStages) > 1:
			find(w.Nam, "%s queue (slot %d) has producers in stages %v (SPSC wants exactly one)",
				q.role, q.slot, pushStages)
			continue
		case len(popStages) > 1:
			find(w.Nam, "%s queue (slot %d) has consumers in stages %v (SPSC wants exactly one)",
				q.role, q.slot, popStages)
			continue
		}
		prod, cons := pushStages[0], popStages[0]
		linkOK := true
		if q.role == QueueToken && cons != prod+1 {
			find(w.Nam, "token queue (slot %d) links stage %d to stage %d (token queues must link adjacent stages)",
				q.slot, prod, cons)
			linkOK = false
		}
		if q.role == QueueValue && cons <= prod {
			find(w.Nam, "value queue (slot %d) does not flow forward through the pipeline (stage %d to stage %d)",
				q.slot, prod, cons)
		}

		// One transfer per chunk on each side, plus the producer's short
		// last one; a value queue moves staged buffers, a token queue one
		// token.
		if !lintChunked(find, fam, q, chunk, scans[prod], scans[cons], prod, cons, pushes, pops) {
			linkOK = false
		}

		// Close protocol: the producer closes, exactly once, after its
		// loop, and nothing touches the queue past the close.
		for _, c := range closes {
			if c.stage != prod {
				find(fam.stages[c.stage].Nam, "%s queue (slot %d) is closed by stage %d, not its producer stage %d",
					q.role, q.slot, c.stage, prod)
			}
		}
		prodCloses := 0
		for _, c := range closes {
			if c.stage == prod {
				prodCloses++
			}
		}
		switch {
		case prodCloses == 0:
			find(fam.stages[prod].Nam, "%s queue (slot %d) is never closed by its producer (stage %d)",
				q.role, q.slot, prod)
		case prodCloses > 1:
			find(fam.stages[prod].Nam, "%s queue (slot %d) is closed %d times (double close)",
				q.role, q.slot, prodCloses)
		}
		for _, c := range closes {
			if !scans[c.stage].outsideLoops(c.op.instr) {
				find(fam.stages[c.stage].Nam, "close of %s queue (slot %d) executes inside the stage loop",
					q.role, q.slot)
			}
			for _, o := range reachableAfter(c.op.instr, scans[c.stage].ops[q.slot]) {
				if o.name == interp.ExternQueueClose {
					continue // the double close above already names this
				}
				find(fam.stages[c.stage].Nam, "%s of %s queue (slot %d) is reachable after its close",
					opVerb(o.name), q.role, q.slot)
			}
		}

		if q.role == QueueToken && linkOK {
			tokenLinks[prod] = true
		}
	}

	// Token coverage: each cross-stage memory dependence the plan
	// recorded needs the complete chain of token links between its
	// endpoints to carry the happens-before.
	deps, depFs := parseMemDeps(w)
	fs = append(fs, depFs...)
	for _, d := range deps {
		for k := d[0]; k < d[1]; k++ {
			if !tokenLinks[k] {
				find(w.Nam, "cross-stage memory dependence %d>%d is not covered by the token chain (missing token link %d>%d)",
					d[0], d[1], k, k+1)
				break
			}
		}
	}
	return fs
}

// lintChunked checks queue q's transfers against the chunk structure of
// its two stages and reports whether they hold up.
func lintChunked(find func(fn, format string, args ...interface{}), fam *family, q *channel, chunk int64,
	ps, cs *taskOps, prod, cons int, pushes, pops []stagedOp) bool {
	pfn, cfn := fam.stages[prod].Nam, fam.stages[cons].Nam
	ok := true
	bad := func(fn, format string, args ...interface{}) {
		find(fn, format, args...)
		ok = false
	}
	wantPush, wantPop := interp.ExternQueuePushN, interp.ExternQueuePopN
	if q.role == QueueToken {
		wantPush, wantPop = interp.ExternQueuePush, interp.ExternQueuePop
	}
	for _, o := range append(append([]stagedOp{}, pushes...), pops...) {
		if o.op.name != wantPush && o.op.name != wantPop {
			bad(fam.stages[o.stage].Nam, "%s queue (slot %d) is moved by @%s in stage %d (want @%s and @%s)",
				q.role, q.slot, o.op.name, o.stage, wantPush, wantPop)
		}
	}
	pc, cc := ps.chunking(), cs.chunking()
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
		if ps.outsideLoops(p.op.instr) {
			tail = append(tail, p.op)
		} else {
			perChunk = append(perChunk, p.op)
		}
	}
	if len(perChunk) != 1 {
		bad(pfn, "stage %d pushes %s queue (slot %d) %d times per chunk (want exactly once)", prod, q.role, q.slot, len(perChunk))
	} else if perChunk[0].instr.Parent != pc.end {
		bad(pfn, "push of %s queue (slot %d) does not execute exactly once per chunk", q.role, q.slot)
	}
	switch {
	case len(tail) == 0:
		bad(pfn, "tail chunk of %s queue (slot %d) is never pushed (want one push after the loop, before the close)", q.role, q.slot)
	case len(tail) > 1:
		bad(pfn, "tail chunk of %s queue (slot %d) is pushed %d times after the loop", q.role, q.slot, len(tail))
	}
	if len(pops) != 1 {
		bad(cfn, "stage %d pops %s queue (slot %d) %d times per chunk (want exactly once)", cons, q.role, q.slot, len(pops))
	} else if pops[0].op.instr.Parent != cc.begin {
		bad(cfn, "pop of %s queue (slot %d) does not execute exactly once per chunk", q.role, q.slot)
	}
	if !ok || q.role != QueueValue {
		return ok
	}

	push, last, pop := perChunk[0].instr.CallArgs(), tail[0].instr.CallArgs(), pops[0].op.instr.CallArgs()
	pushK, popK := bulkCount(push), bulkCount(pop)
	switch {
	case pushK != popK:
		bad(fam.wrapper.Nam, "chunk-size mismatch on value queue (slot %d): stage %d pushes %d values per chunk, stage %d pops %d",
			q.slot, prod, pushK, cons, popK)
	case pushK != chunk || pc.k != chunk || cc.k != chunk:
		bad(fam.wrapper.Nam, "value queue (slot %d) moves %d values per chunk between counters wrapping at %d and %d, the pipeline's chunk is %d",
			q.slot, pushK, pc.k, cc.k, chunk)
	}
	if last[1] != push[1] || last[2] != ir.Value(pc.pos) {
		bad(pfn, "tail push of value queue (slot %d) does not push the staged part of its buffer", q.slot)
	}
	lintStaging(bad, q, ps, pc, prod, push[1], ir.OpStore, "store")
	lintStaging(bad, q, cs, cc, cons, pop[1], ir.OpLoad, "load")
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
func lintStaging(bad func(fn, format string, args ...interface{}), q *channel, t *taskOps, c *chunking, stage int,
	buf ir.Value, op ir.Op, verb string) {
	if a, _ := buf.(*ir.Instr); a == nil || a.Opcode != ir.OpAlloca || int64(a.AllocaCount) != c.k {
		bad(t.fn.Nam, "staging buffer of value queue (slot %d) in stage %d is not a stage-local buffer of %d cells", q.slot, stage, c.k)
		return
	}
	accesses := t.staging(buf, op)
	if len(accesses) != 1 {
		bad(t.fn.Nam, "stage %d has %d staging %ss for value queue (slot %d) (want exactly one)", stage, len(accesses), verb, q.slot)
		return
	}
	in := accesses[0]
	if !t.oncePerIteration(in, c.loop) {
		bad(t.fn.Nam, "staging %s of value queue (slot %d) does not execute exactly once per iteration", verb, q.slot)
	}
	if addr := in.Ops[len(in.Ops)-1].(*ir.Instr); addr.Ops[1] != ir.Value(c.pos) {
		bad(t.fn.Nam, "staging %s of value queue (slot %d) is not at the chunk position", verb, q.slot)
	}
}

// stagedOp is a communication operation tagged with the pipeline stage
// that issues it.
type stagedOp struct {
	stage int
	op    *commOp
}

// stageSet returns the distinct, ordered stage indices of ops.
func stageSet(ops []stagedOp) []int {
	seen := map[int]bool{}
	var out []int
	for _, o := range ops {
		if !seen[o.stage] {
			seen[o.stage] = true
			out = append(out, o.stage)
		}
	}
	sort.Ints(out)
	return out
}

// parseMemDeps reads the wrapper's recorded cross-stage memory
// dependences: "from>to" pairs, comma-separated.
func parseMemDeps(w *ir.Function) ([][2]int, []Finding) {
	raw := w.MD.Get(MDMemDeps)
	if raw == "" {
		return nil, nil
	}
	var deps [][2]int
	for _, part := range strings.Split(raw, ",") {
		var from, to int
		if _, err := fmt.Sscanf(part, "%d>%d", &from, &to); err != nil || from >= to || from < 0 {
			return nil, []Finding{{Tier: TierComm, Fn: w.Nam,
				Detail: fmt.Sprintf("dswp wrapper has malformed %s entry %q", MDMemDeps, part)}}
		}
		deps = append(deps, [2]int{from, to})
	}
	return deps, nil
}

// lintHELIX checks one per-block task family: each sequential segment's
// signal is bracketed by exactly one wait(worker) and one fire(worker+1),
// both outside the task's loops (once per block), with the wait
// dominating the fire so the cross-worker happens-before chain stays
// acyclic, and the segment's carried-state cells are touched only inside
// the bracket.
func lintHELIX(fam *family) []Finding {
	var fs []Finding
	find := func(fn, format string, args ...interface{}) {
		fs = append(fs, Finding{Tier: TierComm, Fn: fn, Detail: fmt.Sprintf(format, args...)})
	}
	if fam.helix == nil {
		find("", "helix family %q has signals but no task function", fam.name)
		return fs
	}
	task := fam.helix
	nsegs, err := strconv.Atoi(task.MD.Get(MDSegments))
	if err != nil || nsegs < 0 {
		find(task.Nam, "helix task has invalid %s=%q", MDSegments, task.MD.Get(MDSegments))
		return fs
	}
	bySeg := map[int]*channel{}
	for _, ch := range fam.signals {
		s, err := strconv.Atoi(ch.role)
		if err != nil || s < 0 {
			find(ch.host.Nam, "signal %s has invalid %s=%q", ch.create.Ident(), MDSignal, ch.role)
			continue
		}
		if bySeg[s] != nil {
			find(ch.host.Nam, "sequential segment %d has two signals", s)
			continue
		}
		bySeg[s] = ch
	}
	scan := scanTask(task)
	if len(task.Params) < 2 {
		find(task.Nam, "helix task does not have the (env, worker, nworkers) signature")
		return fs
	}
	worker := ir.Value(task.Params[1])
	type bracket struct{ wait, fire *ir.Instr }
	brackets := map[int]bracket{}

	for s := 0; s < nsegs; s++ {
		ch := bySeg[s]
		if ch == nil {
			find(task.Nam, "sequential segment %d has no signal", s)
			continue
		}
		if ch.slot < 0 {
			find(ch.host.Nam, "signal for segment %d is created but never shipped to an environment slot (orphaned)", s)
			continue
		}
		var waits, fires []*commOp
		for _, o := range scan.ops[ch.slot] {
			switch o.name {
			case interp.ExternSignalWait:
				waits = append(waits, o)
			case interp.ExternSignalFire:
				fires = append(fires, o)
			}
		}
		switch {
		case len(waits) == 0 && len(fires) == 0:
			find(task.Nam, "signal for segment %d is never awaited or fired", s)
			continue
		case len(waits) == 0:
			find(task.Nam, "signal for segment %d is fired but never awaited", s)
			continue
		case len(fires) == 0:
			find(task.Nam, "signal for segment %d is awaited but never fired (later workers would wait forever)", s)
			continue
		case len(waits) > 1:
			find(task.Nam, "signal for segment %d is awaited %d times (want exactly once)", s, len(waits))
			continue
		case len(fires) > 1:
			find(task.Nam, "signal for segment %d is fired %d times (want exactly once)", s, len(fires))
			continue
		}
		wait, fire := waits[0], fires[0]
		if args := wait.instr.CallArgs(); len(args) == 2 && args[1] != worker {
			find(task.Nam, "wait ticket of segment %d signal is not the worker index", s)
		}
		if args := fire.instr.CallArgs(); len(args) == 2 && !isPlusOne(args[1], worker) {
			find(task.Nam, "fire ticket of segment %d signal is not worker+1", s)
		}
		if !scan.domTree().DominatesInstr(wait.instr, fire.instr) {
			find(task.Nam, "fire of segment %d signal precedes its wait (happens-before chain is cyclic)", s)
		}
		for _, o := range []*commOp{wait, fire} {
			if !scan.outsideLoops(o.instr) {
				find(task.Nam, "@%s of segment %d signal sits in a loop of the task (want once per block)", o.name, s)
			}
		}
		brackets[s] = bracket{wait.instr, fire.instr}
	}

	// Carried state: a cell's reload must follow its segment's wait and
	// its write-back precede the fire, or a neighbouring block reads a
	// stale value (or overwrites a fresh one).
	carried := map[int64]int{}
	if raw := task.MD.Get(MDCarried); raw != "" {
		for _, part := range strings.Split(raw, ",") {
			var slot int64
			var seg int
			if _, err := fmt.Sscanf(part, "%d:%d", &slot, &seg); err != nil {
				find(task.Nam, "helix task has malformed %s entry %q", MDCarried, part)
				return fs
			}
			carried[slot] = seg
		}
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
			!(scan.domTree().DominatesInstr(br.wait, in) && scan.domTree().DominatesInstr(in, br.fire)) {
			find(task.Nam, "carried state of segment %d (environment cell %d) is accessed outside the segment's wait/fire bracket", seg, cell.Int)
		}
		return true
	})
	return fs
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

// lintDOALL checks that DOALL task bodies stay communication-free:
// embarrassingly-parallel workers have no business touching queues or
// signals.
func lintDOALL(m *ir.Module) []Finding {
	var fs []Finding
	for _, f := range m.Functions {
		if f.IsDeclaration() || f.MD.Get(MDKind) != KindDoallTask {
			continue
		}
		f.Instrs(func(in *ir.Instr) bool {
			if in.Opcode != ir.OpCall {
				return true
			}
			if callee := in.CalledFunction(); callee != nil && isCommExtern(callee.Nam) {
				fs = append(fs, Finding{Tier: TierComm, Fn: f.Nam,
					Detail: fmt.Sprintf("doall task calls communication extern @%s (DOALL bodies must be communication-free)", callee.Nam)})
			}
			return true
		})
	}
	return fs
}

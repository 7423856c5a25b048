package loopbuilder

import (
	"fmt"

	"noelle/internal/env"
	"noelle/internal/interp"
	"noelle/internal/ir"
	"noelle/internal/loops"
	"noelle/internal/verify"
)

// Task outlining: the mechanical part of turning a loop into dispatched
// task functions, shared by every parallelizing code generator. An
// Outline is the dispatching side (pre-header, environment block,
// dispatch call, loop replacement); a Body is the task side (live-in
// loads, a clone of the loop's blocks, operand and branch wiring). What a
// technique adds — worker ranges and reduction cells, queues, signals —
// it emits through the builders both expose, so this file knows no
// technique: it takes predicates and tables.

// Outlinable checks the loop shape the scaffold handles: one exiting
// block which is the header, one latch, one exit, and live-ins that fit
// an 8-byte environment cell. A technique that re-seeds the induction
// variables per worker (reseeds) also needs what EmitTripCount and SeedIV
// need: a governing IV with a constant non-zero step under an ordering
// or != exit comparison.
func Outlinable(l *loops.Loop, reseeds bool) error {
	ls := l.LS
	if len(ls.ExitingBlocks) != 1 || ls.ExitingBlocks[0] != ls.Header {
		return fmt.Errorf("not header-exiting")
	}
	if len(ls.Latches) != 1 || len(ls.Exits) != 1 {
		return fmt.Errorf("multiple latches or exits")
	}
	if reseeds {
		giv := l.IVs.GoverningIV()
		if giv == nil || giv.StepConst == nil || *giv.StepConst == 0 {
			return fmt.Errorf("no governing IV with a constant non-zero step")
		}
		switch giv.ExitCmp.Opcode {
		case ir.OpLt, ir.OpLe, ir.OpGt, ir.OpGe, ir.OpNe:
		default:
			return fmt.Errorf("unsupported exit comparison %s", giv.ExitCmp.Opcode)
		}
	}
	// Function-typed values have no cast to a cell's raw i64 (rare).
	for _, v := range l.LiveIn {
		if v.Type().Kind == ir.FuncKind {
			return fmt.Errorf("function-typed live-in %s", v.Ident())
		}
	}
	return nil
}

// Outline is the dispatching side of an outlined loop.
type Outline struct {
	// Bld inserts before the pre-header's terminator.
	Bld *ir.Builder
	// Env is the environment PackEnv laid out.
	Env *env.Environment

	mod    *ir.Module
	ls     *loops.LS
	pre    *ir.Block
	envPtr ir.Value
}

// BeginOutline starts outlining ls into dispatched tasks.
func BeginOutline(m *ir.Module, ls *loops.LS) *Outline {
	pre := EnsurePreheader(ls)
	bld := ir.NewBuilder()
	bld.SetInsertionBefore(pre.Terminator())
	return &Outline{Bld: bld, mod: m, ls: ls, pre: pre}
}

// PackEnv finalizes the environment, allocates its block — one cell per
// slot plus extraCells the technique indexes itself, never fewer than
// one — under name, and stores every live-in into its cell.
func (o *Outline) PackEnv(eb *env.Builder, extraCells int, name string) {
	o.Env = eb.Build()
	cells := o.Env.NumSlots() + extraCells
	if cells < 1 {
		cells = 1
	}
	o.envPtr = o.Bld.CreateAlloca(ir.I64Type, cells, name)
	for _, s := range o.Env.Slots {
		if s.Kind == env.LiveIn {
			o.Store(s.Index, s.Value)
		}
	}
}

func (o *Outline) cellAddr(cell int) ir.Value {
	return o.Bld.CreatePtrAdd(o.envPtr, ir.ConstInt(int64(cell)), "")
}

// Store writes v, flattened to raw bits, into an environment cell.
func (o *Outline) Store(cell int, v ir.Value) {
	addr := o.cellAddr(cell)
	o.Bld.CreateStore(env.ToBits(o.Bld, v), addr)
}

// Reload reads an environment cell back as a value of type ty.
func (o *Outline) Reload(cell int, ty *ir.Type) ir.Value {
	raw := o.Bld.CreateLoad(o.cellAddr(cell), "")
	return env.FromBits(o.Bld, raw, ty)
}

// NewTask adds an empty task function over the packed environment.
func (o *Outline) NewTask(name string) *env.Task {
	return env.NewTask(o.mod, name, o.Env)
}

// Dispatch emits noelle_dispatch(fn, env, workers), stamped with the
// lowering's protocol record for the comm verifier. The extern is
// declared here, on first use, so a technique's own externs — declared
// before it gets this far — keep their place in the module.
func (o *Outline) Dispatch(fn *ir.Function, workers ir.Value, proto *verify.Protocol) {
	dispatch := o.mod.DeclareFunction(interp.ExternDispatch,
		ir.FuncOf(ir.VoidType, env.TaskSignature(), ir.PointerTo(ir.I64Type), ir.I64Type))
	o.Bld.CreateCall(dispatch, []ir.Value{fn, o.envPtr, workers}, "").SetMD(verify.MDProtocol, proto.Encode())
}

// IVFinal emits an induction variable's value after tc iterations:
// start + tc*step.
func (o *Outline) IVFinal(iv *loops.IV, tc ir.Value) ir.Value {
	mul := o.Bld.CreateBinOp(ir.OpMul, tc, ir.ConstInt(*iv.StepConst), "")
	return o.Bld.CreateBinOp(ir.OpAdd, iv.Start, mul, "iv.final")
}

// Finish rewires the CFG around the loop, whose work the dispatch now
// does: exit-block phis take their loop-incoming values from finals via
// the pre-header edge, remaining out-of-loop uses of loop-defined values
// are remapped to finals, the pre-header jumps straight to the exit, and
// the loop blocks are removed. finals maps each live-out instruction to
// its reconstructed post-loop value; loop values absent from finals are
// left alone (their uses must already be gone).
func (o *Outline) Finish(finals map[*ir.Instr]ir.Value) {
	ls, f := o.ls, o.ls.Fn
	exit, header := ls.Exits[0], ls.Header
	for _, phi := range exit.Phis() {
		for i, b := range phi.Blocks {
			if b == header {
				if v, ok := phi.Ops[i].(*ir.Instr); ok && finals[v] != nil {
					phi.Ops[i] = finals[v]
				}
				phi.Blocks[i] = o.pre
			}
		}
	}
	f.Instrs(func(user *ir.Instr) bool {
		if ls.ContainsInstr(user) {
			return true
		}
		for i, op := range user.Ops {
			if d, ok := op.(*ir.Instr); ok && finals[d] != nil && ls.ContainsInstr(d) {
				user.Ops[i] = finals[d]
			}
		}
		return true
	})
	o.pre.ReplaceSuccessor(header, exit)
	for _, b := range ls.Blocks() {
		b.Instrs = nil
		f.RemoveBlock(b)
	}
}

// Body is the task side of an outlined loop: a task function holding a
// (possibly partial) clone of the loop's blocks between an entry block
// and a done block.
type Body struct {
	Task *env.Task
	// Bld starts at the end of Entry, after the live-in loads; Wire
	// closes Entry, after which the technique points it where it emits
	// next (Done, or a communication point inside the clone).
	Bld         *ir.Builder
	Entry, Done *ir.Block

	ls     *loops.LS
	liveIn map[ir.Value]ir.Value // original live-in -> typed in-task load
	blocks map[*ir.Block]*ir.Block
	instrs map[*ir.Instr]*ir.Instr
	subst  map[*ir.Instr]ir.Value
}

// NewBody opens task's entry block and loads every live-in slot of its
// environment, typed back from the raw cell.
func NewBody(task *env.Task, ls *loops.LS) *Body {
	b := &Body{
		Task: task, Bld: ir.NewBuilder(), Entry: task.Fn.NewBlock("entry"), ls: ls,
		liveIn: map[ir.Value]ir.Value{},
		blocks: map[*ir.Block]*ir.Block{},
		instrs: map[*ir.Instr]*ir.Instr{},
		subst:  map[*ir.Instr]ir.Value{},
	}
	b.Bld.SetInsertionBlock(b.Entry)
	for _, s := range task.Env.Slots {
		if s.Kind != env.LiveIn {
			continue
		}
		raw := b.Bld.CreateLoad(task.EnvSlotAddr(b.Bld, s), fmt.Sprintf("in%d", s.Index))
		b.liveIn[s.Value] = env.FromBits(b.Bld, raw, s.Value.Type())
	}
	return b
}

// Chain returns the Body of one more copy of the loop in the same task,
// entered from b's Done: it shares b's live-in loads and builder and
// starts with no clone, so a task can run the iteration range several
// times over (HELIX's phase loops), each copy ending where the next
// begins.
func (b *Body) Chain() *Body {
	return &Body{
		Task: b.Task, Bld: b.Bld, Entry: b.Done, ls: b.ls, liveIn: b.liveIn,
		blocks: map[*ir.Block]*ir.Block{},
		instrs: map[*ir.Instr]*ir.Instr{},
		subst:  map[*ir.Instr]ir.Value{},
	}
}

// SeedIV emits iv's value at iteration iter of the original loop:
// start + iter*step. The per-worker (or per-block) IV seeding every
// re-seeding technique starts its copy of the loop from.
func (b *Body) SeedIV(iv *loops.IV, iter ir.Value) ir.Value {
	offs := b.Bld.CreateBinOp(ir.OpMul, iter, ir.ConstInt(*iv.StepConst), "")
	return b.Bld.CreateBinOp(ir.OpAdd, b.Map(iv.Start), offs, "seed")
}

// EnterWith makes v the value the clone of header phi phi takes on the
// edge from Entry (call after Wire): an IV's seed, a reduction's
// identity, a carried value reloaded from its cell.
func (b *Body) EnterWith(phi *ir.Instr, v ir.Value) {
	np := b.instrs[phi]
	for i, from := range np.Blocks {
		if from == b.Entry {
			np.Ops[i] = v
		}
	}
}

// Clone adds one block per loop block, then Done, then an operand-less
// shell (same opcode, type, name, alloca shape and metadata) of every
// loop instruction keep accepts (nil keeps all). Operands wait for Wire:
// the values they may resolve to — popped queue values, per-iteration
// phi values — are emitted into the clone first.
func (b *Body) Clone(keep func(*ir.Instr) bool) {
	loopBlocks := b.ls.Blocks()
	for _, ob := range loopBlocks {
		b.blocks[ob] = b.Task.Fn.NewBlock("t." + ob.Nam)
	}
	b.Done = b.Task.Fn.NewBlock("done")
	for _, ob := range loopBlocks {
		nb := b.blocks[ob]
		for _, in := range ob.Instrs {
			if keep != nil && !keep(in) {
				continue
			}
			ni := &ir.Instr{
				Opcode: in.Opcode, Ty: in.Ty, Nam: in.Nam,
				AllocaElem: in.AllocaElem, AllocaCount: in.AllocaCount,
				Parent: nb, ID: -1, MD: in.MD.Clone(),
			}
			nb.Instrs = append(nb.Instrs, ni)
			b.instrs[in] = ni
		}
	}
}

// Block returns the clone of loop block ob.
func (b *Body) Block(ob *ir.Block) *ir.Block { return b.blocks[ob] }

// Instr returns the clone of loop instruction in, nil when Clone's
// predicate dropped it.
func (b *Body) Instr(in *ir.Instr) *ir.Instr { return b.instrs[in] }

// Subst makes in-task value v stand for loop instruction in wherever a
// clone does not: a value popped from a queue, a header phi's value for
// this iteration.
func (b *Body) Subst(in *ir.Instr, v ir.Value) { b.subst[in] = v }

// Map resolves an original value to its in-task counterpart: the clone,
// else the substitute, else the live-in load, else v itself (constants,
// globals, functions).
func (b *Body) Map(v ir.Value) ir.Value {
	if in, ok := v.(*ir.Instr); ok {
		if ni := b.instrs[in]; ni != nil {
			return ni
		}
		if sv := b.subst[in]; sv != nil {
			return sv
		}
	}
	if nv, ok := b.liveIn[v]; ok {
		return nv
	}
	return v
}

// Wire fills in every shell's operands through Map and its block
// operands — an in-loop target becomes its clone, a phi's loop-entry
// edge comes from Entry, an exit edge goes to Done — and ends Entry with
// the branch into the header's clone.
func (b *Body) Wire() {
	for _, ob := range b.ls.Blocks() {
		for _, in := range ob.Instrs {
			ni := b.instrs[in]
			if ni == nil {
				continue
			}
			for _, op := range in.Ops {
				ni.Ops = append(ni.Ops, b.Map(op))
			}
			for _, tb := range in.Blocks {
				switch {
				case b.blocks[tb] != nil:
					ni.Blocks = append(ni.Blocks, b.blocks[tb])
				case in.Opcode == ir.OpPhi:
					ni.Blocks = append(ni.Blocks, b.Entry)
				default:
					ni.Blocks = append(ni.Blocks, b.Done)
				}
			}
		}
	}
	b.Bld.SetInsertionBlock(b.Entry)
	b.Bld.CreateBr(b.blocks[b.ls.Header])
}

// SplitBefore cuts in's block in two after Wire: in and everything behind
// it, terminator included, move to a new block labelled name, and the phis
// of the terminator's successors name the new block where they named the
// old one. The old block is left without a terminator for the technique to
// end — with a branch around work that runs on some iterations only (a
// chunk boundary) and meets the new block again.
func SplitBefore(in *ir.Instr, name string) *ir.Block {
	head := in.Parent
	tail := head.Parent.NewBlock(name)
	at := head.IndexOf(in)
	tail.Instrs = append(tail.Instrs, head.Instrs[at:]...)
	head.Instrs = head.Instrs[:at:at]
	for _, moved := range tail.Instrs {
		moved.Parent = tail
	}
	for _, succ := range tail.Successors() {
		for _, phi := range succ.Phis() {
			for i, from := range phi.Blocks {
				if from == head {
					phi.Blocks[i] = tail
				}
			}
		}
	}
	return tail
}

// Publish stores v, flattened to raw bits, into slot's cell at Bld's
// insertion point.
func (b *Body) Publish(slot *env.Slot, v ir.Value) {
	addr := b.Task.EnvSlotAddr(b.Bld, slot)
	b.Bld.CreateStore(env.ToBits(b.Bld, v), addr)
}

package passes

import (
	"math"

	"noelle/internal/analysis"
	"noelle/internal/ir"
)

// RemoveUnreachable deletes blocks that cannot be reached from the entry,
// patching phis in the surviving blocks. Returns the number removed.
func RemoveUnreachable(f *ir.Function) int {
	if f.IsDeclaration() {
		return 0
	}
	cfg := analysis.NewCFG(f)
	var dead []*ir.Block
	for _, b := range f.Blocks {
		if !cfg.Reachable(b) {
			dead = append(dead, b)
		}
	}
	if len(dead) == 0 {
		return 0
	}
	deadSet := map[*ir.Block]bool{}
	for _, b := range dead {
		deadSet[b] = true
	}
	for _, b := range f.Blocks {
		if deadSet[b] {
			continue
		}
		for _, phi := range b.Phis() {
			for _, db := range dead {
				phi.RemovePhiIncoming(db)
			}
		}
	}
	for _, b := range dead {
		f.RemoveBlock(b)
	}
	return len(dead)
}

// DCE removes instructions whose results are unused and that have no side
// effects, iterating to a fixed point. Returns the number removed.
func DCE(f *ir.Function) int {
	if f.IsDeclaration() {
		return 0
	}
	removed := 0
	for {
		du := analysis.NewDefUse(f)
		var dead []*ir.Instr
		f.Instrs(func(in *ir.Instr) bool {
			if isTriviallyDead(in, du) {
				dead = append(dead, in)
			}
			return true
		})
		if len(dead) == 0 {
			return removed
		}
		for _, in := range dead {
			in.Parent.Remove(in)
			removed++
		}
	}
}

func isTriviallyDead(in *ir.Instr, du *analysis.DefUse) bool {
	if in.IsTerminator() || in.Opcode == ir.OpStore {
		return false
	}
	if in.Opcode == ir.OpCall {
		return false // calls may have side effects; DEAD handles functions
	}
	if !in.HasResult() {
		return false
	}
	return !du.HasUses(in)
}

// PruneDeadPhis removes phi webs whose values never reach a non-phi
// instruction. Mem2Reg builds non-pruned SSA, which leaves dead phi cycles
// through loop headers; those masquerade as loop-carried dependences and
// must go before dependence analysis. Returns the number removed.
func PruneDeadPhis(f *ir.Function) int {
	if f.IsDeclaration() {
		return 0
	}
	// A phi is live if a non-phi uses it, or a live phi uses it.
	live := map[*ir.Instr]bool{}
	var work []*ir.Instr
	f.Instrs(func(in *ir.Instr) bool {
		if in.Opcode == ir.OpPhi {
			return true
		}
		for _, op := range in.Ops {
			if phi, ok := op.(*ir.Instr); ok && phi.Opcode == ir.OpPhi && !live[phi] {
				live[phi] = true
				work = append(work, phi)
			}
		}
		return true
	})
	for len(work) > 0 {
		phi := work[len(work)-1]
		work = work[:len(work)-1]
		for _, op := range phi.Ops {
			if p, ok := op.(*ir.Instr); ok && p.Opcode == ir.OpPhi && !live[p] {
				live[p] = true
				work = append(work, p)
			}
		}
	}
	removed := 0
	for _, b := range f.Blocks {
		for _, phi := range b.Phis() {
			if !live[phi] {
				b.Remove(phi)
				removed++
			}
		}
	}
	return removed
}

// LiveDCE removes every instruction not transitively needed by an
// effectful root (stores, calls, terminators). Unlike the local DCE it
// kills self-sustaining dead webs — phi/arithmetic cycles that reference
// each other across loop iterations without ever reaching an observable
// effect. Returns the number removed.
func LiveDCE(f *ir.Function) int {
	if f.IsDeclaration() {
		return 0
	}
	live := map[*ir.Instr]bool{}
	var work []*ir.Instr
	root := func(in *ir.Instr) bool {
		switch in.Opcode {
		case ir.OpStore, ir.OpCall, ir.OpBr, ir.OpCondBr, ir.OpRet, ir.OpAlloca:
			// Allocas stay: their storage may be read through pointers the
			// analysis cannot see locally; unused ones fall to plain DCE.
			return true
		}
		return false
	}
	f.Instrs(func(in *ir.Instr) bool {
		if root(in) {
			live[in] = true
			work = append(work, in)
		}
		return true
	})
	for len(work) > 0 {
		in := work[len(work)-1]
		work = work[:len(work)-1]
		for _, op := range in.Ops {
			if d, ok := op.(*ir.Instr); ok && !live[d] {
				live[d] = true
				work = append(work, d)
			}
		}
	}
	removed := 0
	for _, b := range f.Blocks {
		kept := b.Instrs[:0]
		for _, in := range b.Instrs {
			if live[in] {
				kept = append(kept, in)
			} else {
				in.Parent = nil
				removed++
			}
		}
		b.Instrs = kept
	}
	return removed
}

// ConstFold folds instructions whose operands are all constants and
// replaces their uses, iterating to a fixed point. Returns folds performed.
func ConstFold(f *ir.Function) int {
	if f.IsDeclaration() {
		return 0
	}
	folded := 0
	for {
		changed := false
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				c := foldInstr(in)
				if c == nil {
					continue
				}
				f.ReplaceAllUses(in, c)
				b.Remove(in)
				folded++
				changed = true
				break // instr list mutated; restart block
			}
		}
		if !changed {
			return folded
		}
	}
}

// foldInstr evaluates in over constant operands with the interpreter's
// own semantics (ir.Eval) and rebuilds a constant of the result type; nil
// means "do not fold" (a non-constant operand, a trapping div/rem, or an
// opcode outside the folded set).
func foldInstr(in *ir.Instr) *ir.Const {
	if !(in.Opcode.IsBinaryOp() || in.Opcode.IsCompare() ||
		in.Opcode == ir.OpZExt || in.Opcode == ir.OpTrunc ||
		in.Opcode == ir.OpSIToFP || in.Opcode == ir.OpFPToSI) {
		return nil
	}
	var bits [2]uint64
	for i, op := range in.Ops {
		c, ok := op.(*ir.Const)
		if !ok {
			return nil
		}
		bits[i] = c.Bits()
	}
	r, ok := ir.Eval(in.Opcode, bits[0], bits[1])
	if !ok {
		return nil
	}
	if in.Ty.IsFloat() {
		return ir.ConstFloat(math.Float64frombits(r))
	}
	return &ir.Const{Ty: in.Ty, Int: int64(r)}
}

// SimplifyCFG performs basic CFG cleanups: folds constant conditional
// branches, merges blocks with a single predecessor whose predecessor has a
// single successor, and removes unreachable blocks. Returns a change count.
func SimplifyCFG(f *ir.Function) int {
	if f.IsDeclaration() {
		return 0
	}
	changes := 0
	for {
		changed := false

		// Fold condbr on constants.
		for _, b := range f.Blocks {
			t := b.Terminator()
			if t == nil || t.Opcode != ir.OpCondBr {
				continue
			}
			c, ok := t.Ops[0].(*ir.Const)
			if !ok {
				continue
			}
			taken, dropped := t.Blocks[0], t.Blocks[1]
			if c.Int == 0 {
				taken, dropped = dropped, taken
			}
			nb := &ir.Instr{Opcode: ir.OpBr, Ty: ir.VoidType, Blocks: []*ir.Block{taken}, Parent: b, ID: -1}
			b.Instrs[len(b.Instrs)-1] = nb
			if dropped != taken {
				for _, phi := range dropped.Phis() {
					phi.RemovePhiIncoming(b)
				}
			}
			changed = true
			changes++
		}

		changes += RemoveUnreachable(f)

		// Merge straight-line block pairs: b -> s where b is s's only
		// predecessor and s is b's only successor.
		for _, b := range f.Blocks {
			succs := b.Successors()
			if len(succs) != 1 {
				continue
			}
			s := succs[0]
			if s == b || s == f.Entry() {
				continue
			}
			if len(s.Preds()) != 1 {
				continue
			}
			if len(s.Phis()) > 0 {
				// Single-pred phis are trivially replaceable.
				for _, phi := range s.Phis() {
					f.ReplaceAllUses(phi, phi.Ops[0])
					s.Remove(phi)
				}
			}
			// Splice s's instructions into b, replacing b's terminator.
			b.Instrs = b.Instrs[:len(b.Instrs)-1]
			for _, in := range s.Instrs {
				in.Parent = b
				b.Instrs = append(b.Instrs, in)
			}
			// Phis in s's successors referring to s now come from b.
			for _, ss := range b.Successors() {
				for _, phi := range ss.Phis() {
					for i, ib := range phi.Blocks {
						if ib == s {
							phi.Blocks[i] = b
						}
					}
				}
			}
			s.Instrs = nil
			f.RemoveBlock(s)
			changed = true
			changes++
			break // block list mutated; restart scan
		}

		if !changed {
			return changes
		}
	}
}

// Optimize runs the standard pipeline on every function: unreachable-block
// removal, SSA promotion, constant folding, DCE, and CFG simplification.
// This approximates the -O2 input the paper's tools consume.
func Optimize(m *ir.Module) {
	for _, f := range m.Functions {
		if f.IsDeclaration() {
			continue
		}
		RemoveUnreachable(f)
		Mem2Reg(f)
		PruneDeadPhis(f)
		Peephole(f)
		ConstFold(f)
		DCE(f)
		SimplifyCFG(f)
		Peephole(f)
		PruneDeadPhis(f)
		LiveDCE(f)
		DCE(f)
	}
}

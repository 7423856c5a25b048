package ir

import (
	"fmt"
	"strings"
)

// VerifyError aggregates the structural problems found in a module.
type VerifyError struct {
	Problems []string
}

// Error joins the problems into one message.
func (e *VerifyError) Error() string {
	return fmt.Sprintf("ir verification failed (%d problems):\n  %s",
		len(e.Problems), strings.Join(e.Problems, "\n  "))
}

// domInfo is the compact dominance computation the verifier uses for the
// def-dominates-use check: reachability from the entry plus immediate
// dominators (Cooper-Harvey-Kennedy over reverse postorder). It
// duplicates internal/analysis.DomTree in miniature because the ir
// package sits below analysis in the import graph; the richer tree (with
// children, frontiers, post-dominance) stays in analysis.
type domInfo struct {
	idom  map[*Block]*Block
	order map[*Block]int // RPO index (reachable blocks only)
}

func newDomInfo(f *Function, preds map[*Block][]*Block) *domInfo {
	d := &domInfo{idom: map[*Block]*Block{}, order: map[*Block]int{}}
	entry := f.Entry()
	if entry == nil {
		return d
	}
	// Reverse postorder over the reachable subgraph.
	var post []*Block
	seen := map[*Block]bool{}
	var dfs func(b *Block)
	dfs = func(b *Block) {
		seen[b] = true
		for _, s := range b.Successors() {
			if !seen[s] {
				dfs(s)
			}
		}
		post = append(post, b)
	}
	dfs(entry)
	rpo := make([]*Block, 0, len(post))
	for i := len(post) - 1; i >= 0; i-- {
		rpo = append(rpo, post[i])
	}
	for i, b := range rpo {
		d.order[b] = i
	}
	d.idom[entry] = nil
	intersect := func(a, b *Block) *Block {
		for a != b {
			for d.order[a] > d.order[b] {
				a = d.idom[a]
			}
			for d.order[b] > d.order[a] {
				b = d.idom[b]
			}
		}
		return a
	}
	for changed := true; changed; {
		changed = false
		for _, b := range rpo[1:] {
			var pick *Block
			for _, p := range preds[b] {
				if _, processed := d.idom[p]; !processed && p != entry {
					continue
				}
				if !seen[p] {
					continue // unreachable predecessor
				}
				if pick == nil {
					pick = p
				} else {
					pick = intersect(pick, p)
				}
			}
			if pick == nil {
				continue
			}
			if old, ok := d.idom[b]; !ok || old != pick {
				d.idom[b] = pick
				changed = true
			}
		}
	}
	return d
}

// reachable reports whether b is reachable from the function entry.
func (d *domInfo) reachable(b *Block) bool {
	_, ok := d.order[b]
	return ok
}

// blockDominates reports whether a dominates b (reflexively). Both blocks
// must be reachable.
func (d *domInfo) blockDominates(a, b *Block) bool {
	for x := b; x != nil; x = d.idom[x] {
		if x == a {
			return true
		}
	}
	return false
}

// dominatesUse reports whether definition def is available at operand
// position (user, opIdx): for phi operands the definition must dominate
// the end of the matching incoming block (the value travels along that
// edge); for everything else it must strictly precede the user in the
// same block or dominate the user's block.
func (d *domInfo) dominatesUse(def, user *Instr, opIdx int) bool {
	if user.Opcode == OpPhi {
		if opIdx >= len(user.Blocks) {
			return true // ops/blocks mismatch is reported separately
		}
		in := user.Blocks[opIdx]
		if !d.reachable(in) {
			return true // dominance is vacuous on unreachable edges
		}
		return d.blockDominates(def.Parent, in)
	}
	if def.Parent == user.Parent {
		return def.Parent.IndexOf(def) < def.Parent.IndexOf(user)
	}
	return d.blockDominates(def.Parent, user.Parent)
}

// Verify checks the structural well-formedness of a module: every block has
// exactly one terminator (at the end), phis sit at block heads and match
// predecessor lists, operand types match, SSA definitions dominate their
// uses (a true dominator-tree check: use-before-def within a block and
// uses reached from non-dominating blocks are rejected; dominance is only
// enforced for uses in reachable blocks, where execution can observe the
// violation), and calls match callee signatures. It returns nil when the
// module is well formed. This is the "quick" tier of the staged verifier
// (internal/verify adds extern-contract and communication-protocol
// tiers on top).
func Verify(m *Module) error {
	var probs []string
	addf := func(format string, args ...any) {
		probs = append(probs, fmt.Sprintf(format, args...))
	}

	for _, f := range m.Functions {
		if f.IsDeclaration() {
			continue
		}
		// Collect values defined in this function.
		defined := map[Value]bool{}
		for _, p := range f.Params {
			defined[p] = true
		}
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				if in.HasResult() {
					defined[in] = true
				}
			}
		}
		preds := map[*Block][]*Block{}
		for _, b := range f.Blocks {
			for _, s := range b.Successors() {
				preds[s] = append(preds[s], b)
			}
		}
		dom := newDomInfo(f, preds)

		for _, b := range f.Blocks {
			if len(b.Instrs) == 0 {
				addf("%s/%s: empty block", f.Nam, b.Nam)
				continue
			}
			if b.Terminator() == nil {
				addf("%s/%s: missing terminator", f.Nam, b.Nam)
			}
			for i, in := range b.Instrs {
				if in.IsTerminator() && i != len(b.Instrs)-1 {
					addf("%s/%s: terminator %s not at end of block", f.Nam, b.Nam, in)
				}
				if in.Opcode == OpPhi && i >= b.FirstNonPhi() {
					addf("%s/%s: phi %s after non-phi", f.Nam, b.Nam, in.Ident())
				}
				if in.Parent != b {
					addf("%s/%s: instruction %s has wrong parent", f.Nam, b.Nam, in)
				}
				for oi, op := range in.Ops {
					if op == nil {
						addf("%s/%s: %s: nil operand %d", f.Nam, b.Nam, in, oi)
						continue
					}
					switch v := op.(type) {
					case *Instr:
						if !defined[v] {
							addf("%s/%s: %s: operand %s not defined in function", f.Nam, b.Nam, in, v.Ident())
						} else if dom.reachable(b) {
							// Dominance is only meaningful where execution
							// can arrive; uses inside unreachable blocks
							// are structural dead code, not SSA breaks.
							if !dom.reachable(v.Parent) {
								addf("%s/%s: %s: operand %s defined in unreachable block %s",
									f.Nam, b.Nam, in, v.Ident(), v.Parent.Nam)
							} else if !dom.dominatesUse(v, in, oi) {
								addf("%s/%s: %s: operand %s does not dominate this use",
									f.Nam, b.Nam, in, v.Ident())
							}
						}
					case *Param:
						if v.Parent != f {
							addf("%s/%s: %s: foreign parameter %s", f.Nam, b.Nam, in, v.Ident())
						}
					case *Global:
						if m.GlobalByName(v.Nam) != v {
							addf("%s/%s: %s: unknown global %s", f.Nam, b.Nam, in, v.Ident())
						}
					case *Function:
						if m.FunctionByName(v.Nam) != v {
							addf("%s/%s: %s: unknown function %s", f.Nam, b.Nam, in, v.Ident())
						}
					}
				}
				verifyInstr(f, b, in, addf)
			}

			// Phi incoming blocks must exactly match the predecessors.
			for _, phi := range b.Phis() {
				pset := map[*Block]bool{}
				for _, p := range preds[b] {
					pset[p] = true
				}
				seen := map[*Block]bool{}
				for _, ib := range phi.Blocks {
					if !pset[ib] {
						addf("%s/%s: phi %s has incoming from non-predecessor %s", f.Nam, b.Nam, phi.Ident(), ib.Nam)
					}
					if seen[ib] {
						addf("%s/%s: phi %s has duplicate incoming block %s", f.Nam, b.Nam, phi.Ident(), ib.Nam)
					}
					seen[ib] = true
				}
				// In predecessor order, each once, so the message is
				// deterministic.
				for _, p := range preds[b] {
					if !seen[p] {
						addf("%s/%s: phi %s missing incoming for predecessor %s", f.Nam, b.Nam, phi.Ident(), p.Nam)
						seen[p] = true
					}
				}
			}
		}

		// Return types must match the signature.
		for _, b := range f.Blocks {
			t := b.Terminator()
			if t == nil || t.Opcode != OpRet {
				continue
			}
			if f.Sig.Ret.Kind == VoidKind {
				if len(t.Ops) != 0 {
					addf("%s/%s: ret with value in void function", f.Nam, b.Nam)
				}
			} else if len(t.Ops) != 1 || !t.Ops[0].Type().Equal(f.Sig.Ret) {
				addf("%s/%s: ret type mismatch (want %s)", f.Nam, b.Nam, f.Sig.Ret)
			}
		}
	}

	if len(probs) > 0 {
		return &VerifyError{Problems: probs}
	}
	return nil
}

func verifyInstr(f *Function, b *Block, in *Instr, addf func(string, ...any)) {
	badOps := func(want int) bool {
		if len(in.Ops) != want {
			addf("%s/%s: %s: want %d operands, have %d", f.Nam, b.Nam, in.Opcode, want, len(in.Ops))
			return true
		}
		for _, op := range in.Ops {
			if op == nil {
				return true
			}
		}
		return false
	}
	switch {
	case in.Opcode == OpLoad:
		if badOps(1) {
			return
		}
		if !in.Ops[0].Type().IsPtr() || !in.Ops[0].Type().Elem.Equal(in.Ty) {
			addf("%s/%s: %s: load type mismatch", f.Nam, b.Nam, in)
		}
	case in.Opcode == OpStore:
		if badOps(2) {
			return
		}
		if !in.Ops[1].Type().IsPtr() || !in.Ops[1].Type().Elem.Equal(in.Ops[0].Type()) {
			addf("%s/%s: %s: store type mismatch", f.Nam, b.Nam, in)
		}
	case in.Opcode == OpPtrAdd:
		if badOps(2) {
			return
		}
		if !in.Ops[0].Type().IsPtr() || !in.Ops[1].Type().Equal(I64Type) {
			addf("%s/%s: %s: ptradd operand types", f.Nam, b.Nam, in)
		}
	case in.Opcode.IsBinaryOp() || in.Opcode.IsCompare():
		if badOps(2) {
			return
		}
		if !in.Ops[0].Type().Equal(in.Ops[1].Type()) {
			addf("%s/%s: %s: mismatched operand types", f.Nam, b.Nam, in)
		}
	case in.Opcode == OpCall:
		if len(in.Ops) < 1 || in.Ops[0] == nil {
			addf("%s/%s: call with no callee", f.Nam, b.Nam)
			return
		}
		sig := in.Ops[0].Type()
		if sig.Kind != FuncKind {
			addf("%s/%s: %s: callee is not a function", f.Nam, b.Nam, in)
			return
		}
		if len(in.Ops)-1 != len(sig.Params) {
			addf("%s/%s: %s: argument count mismatch", f.Nam, b.Nam, in)
			return
		}
		for i, a := range in.Ops[1:] {
			if !a.Type().Equal(sig.Params[i]) {
				addf("%s/%s: %s: arg %d type mismatch", f.Nam, b.Nam, in, i)
			}
		}
		if !in.Ty.Equal(sig.Ret) {
			addf("%s/%s: %s: result type mismatch", f.Nam, b.Nam, in)
		}
	case in.Opcode == OpPhi:
		if len(in.Ops) != len(in.Blocks) {
			addf("%s/%s: %s: phi ops/blocks length mismatch", f.Nam, b.Nam, in.Ident())
			return
		}
		for _, v := range in.Ops {
			if v != nil && !v.Type().Equal(in.Ty) {
				addf("%s/%s: %s: phi incoming type mismatch", f.Nam, b.Nam, in.Ident())
			}
		}
	case in.Opcode == OpCondBr:
		if badOps(1) {
			return
		}
		if len(in.Blocks) != 2 {
			addf("%s/%s: condbr needs 2 targets", f.Nam, b.Nam)
		}
	case in.Opcode == OpBr:
		if len(in.Blocks) != 1 {
			addf("%s/%s: br needs 1 target", f.Nam, b.Nam)
		}
	}
}

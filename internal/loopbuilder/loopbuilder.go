// Package loopbuilder implements NOELLE's Loop Builder (LB) abstraction:
// loop-level transformations analogous to what IRBuilder is for
// instructions (paper Section 2.2). It provides pre-header creation,
// invariant hoisting (the mechanism behind LICM), scalar promotion of
// memory accumulators (the workhorse of noelle-rm-lc-dependences),
// trip-count emission, and task outlining (outline.go): the one scaffold
// DOALL, DSWP and HELIX build their code generators on — pack the
// environment, dispatch, clone the loop into a task under a predicate,
// seed its induction variables, wire it, replace the loop — so a
// technique package holds only what makes it that technique.
package loopbuilder

import (
	"noelle/internal/ir"
	"noelle/internal/loops"
)

// EnsurePreheader guarantees the loop has a dedicated pre-header block,
// creating one when the header's out-of-loop predecessors are unsuitable.
// Returns the pre-header.
func EnsurePreheader(ls *loops.LS) *ir.Block {
	if ls.Preheader != nil {
		return ls.Preheader
	}
	f := ls.Fn
	header := ls.Header
	pre := f.NewBlock(header.Nam + ".pre")
	bld := ir.NewBuilder()
	bld.SetInsertionBlock(pre)
	bld.CreateBr(header)

	var outside []*ir.Block
	for _, p := range header.Preds() {
		if !ls.Contains(p) && p != pre {
			outside = append(outside, p)
		}
	}
	for _, p := range outside {
		p.ReplaceSuccessor(header, pre)
	}
	// Re-route phi incomings from the outside predecessors through the
	// pre-header. With several outside predecessors a new phi in the
	// pre-header merges them.
	for _, phi := range header.Phis() {
		var vals []ir.Value
		for _, p := range outside {
			if v := phi.PhiIncoming(p); v != nil {
				vals = append(vals, v)
			}
		}
		if len(vals) == 0 {
			continue
		}
		var merged ir.Value
		if len(vals) == 1 {
			merged = vals[0]
		} else {
			m := &ir.Instr{Opcode: ir.OpPhi, Ty: phi.Ty, Nam: f.FreshName(phi.Nam + ".pre"), Parent: pre, ID: -1}
			for i, p := range outside {
				m.Blocks = append(m.Blocks, p)
				m.Ops = append(m.Ops, vals[i])
			}
			pre.Instrs = append([]*ir.Instr{m}, pre.Instrs...)
			merged = m
		}
		for _, p := range outside {
			phi.RemovePhiIncoming(p)
		}
		phi.SetPhiIncoming(pre, merged)
	}
	ls.Preheader = pre
	return pre
}

// Hoist moves instruction in to the end of the loop's pre-header (before
// its terminator). The caller is responsible for having proven in loop
// invariant; Hoist refuses instructions that can never move (phis,
// terminators, stores, allocas).
func Hoist(ls *loops.LS, in *ir.Instr) bool {
	switch in.Opcode {
	case ir.OpPhi, ir.OpStore, ir.OpAlloca, ir.OpBr, ir.OpCondBr, ir.OpRet:
		return false
	}
	pre := EnsurePreheader(ls)
	in.Parent.Remove(in)
	pre.InsertBefore(in, pre.Terminator())
	return true
}

package fuzz

import (
	"strconv"

	"noelle/internal/analysis"
	"noelle/internal/interp"
	"noelle/internal/ir"
	"noelle/internal/verify"
)

// Miscompile is one way a buggy DSWP generator could break the pipeline
// protocol, as a mutation of a comm-clean lowering. The mutations alter
// the IR only and keep it SSA-valid: the stamped metadata still declares
// the original intent, and that mismatch is what the comm tier exists to
// name. One table feeds the inject leg, the corpus recipes and
// internal/verify's mutation suite.
type Miscompile struct {
	// Name is the corpus file and subtest name.
	Name string
	// Want lists what the comm tier must say about the mutated module.
	Want []string
	// seed seeds the miscompile into one DSWP family; false, with the
	// family left alone, when it has no site for it (no token queue, no
	// value queue).
	seed func(d *dswpFamily) bool
}

// Apply seeds the miscompile into the first DSWP family of m that has a
// site for it, and reports whether one had.
func (mc Miscompile) Apply(m *ir.Module) bool {
	for _, w := range m.Functions {
		if w.MD.Get(verify.MDKind) != verify.KindDSWPWrapper {
			continue
		}
		d := &dswpFamily{}
		for s := 0; ; s++ {
			fn := m.FunctionByName(w.Nam + ".stage" + strconv.Itoa(s))
			if fn == nil {
				break
			}
			d.stages = append(d.stages, fn)
		}
		if mc.seed(d) {
			return true
		}
	}
	return false
}

// dswpFamily is the stage functions of one lowered pipeline, as the
// mutations address it.
type dswpFamily struct {
	stages []*ir.Function
}

// call finds stage s's first call to extern, inside the stage loop
// (inLoop) or outside every loop.
func (d *dswpFamily) call(s int, extern string, inLoop bool) *ir.Instr {
	if s >= len(d.stages) {
		return nil
	}
	f := d.stages[s]
	li := analysis.NewLoopInfo(f)
	var found *ir.Instr
	f.Instrs(func(in *ir.Instr) bool {
		if c := in.CalledFunction(); in.Opcode == ir.OpCall && c != nil && c.Nam == extern &&
			(li.LoopOf(in.Parent) != nil) == inLoop {
			found = in
		}
		return found == nil
	})
	return found
}

// DSWPMiscompiles lists the seeded miscompiles of a DSWP lowering.
func DSWPMiscompiles() []Miscompile {
	return []Miscompile{
		{
			Name: "dropped_token_push",
			Want: []string{"0 times per chunk (want exactly once)", "not covered by the token chain (missing token link 0>1)"},
			seed: func(d *dswpFamily) bool {
				push := d.call(0, interp.ExternQueuePush, true)
				if push == nil {
					return false
				}
				push.Parent.Remove(push)
				return true
			},
		},
		{
			Name: "double_close",
			Want: []string{"(double close)"},
			seed: func(d *dswpFamily) bool {
				cl := d.call(0, interp.ExternQueueClose, false)
				if cl == nil {
					return false
				}
				dup := &ir.Instr{Opcode: ir.OpCall, Ty: cl.Ty, Ops: append([]ir.Value{}, cl.Ops...)}
				cl.Parent.InsertAfter(dup, cl)
				return true
			},
		},
		{
			// Sink the per-chunk token push past the loop, next to the
			// close: as many pushes textually, none once per chunk.
			Name: "push_hoisted_out_of_loop",
			Want: []string{"is pushed 2 times after the loop"},
			seed: func(d *dswpFamily) bool {
				push, cl := d.call(0, interp.ExternQueuePush, true), d.call(0, interp.ExternQueueClose, false)
				if push == nil || cl == nil {
					return false
				}
				push.Parent.Remove(push)
				cl.Parent.InsertBefore(push, cl)
				return true
			},
		},
		{
			// Point a bulk pop's handle at another queue the stage pops:
			// its own queue starves.
			Name: "retargeted_pop",
			Want: []string{"but never popped"},
			seed: func(d *dswpFamily) bool {
				for s := 1; s < len(d.stages); s++ {
					bulk := d.call(s, interp.ExternQueuePopN, true)
					if bulk == nil {
						continue
					}
					var other *ir.Instr
					d.stages[s].Instrs(func(in *ir.Instr) bool {
						if c := in.CalledFunction(); in.Opcode == ir.OpCall && c != nil && in != bulk &&
							(c.Nam == interp.ExternQueuePopN || c.Nam == interp.ExternQueuePop) {
							other = in
						}
						return other == nil
					})
					if other != nil {
						bulk.Ops[1] = other.Ops[1]
						return true
					}
				}
				return false
			},
		},
		{
			// The consumer's K differs from the producer's.
			Name: "chunk_size_mismatch",
			Want: []string{"chunk-size mismatch on value queue"},
			seed: func(d *dswpFamily) bool {
				for s := 1; s < len(d.stages); s++ {
					if pop := d.call(s, interp.ExternQueuePopN, true); pop != nil {
						pop.Ops[3] = ir.ConstInt(pop.Ops[3].(*ir.Const).Int / 2)
						return true
					}
				}
				return false
			},
		},
		{
			// The bulk push before the close is gone: a trip count that
			// is no multiple of K loses its last iterations.
			Name: "tail_chunk_dropped",
			Want: []string{"is never pushed (want one push after the loop, before the close)"},
			seed: func(d *dswpFamily) bool {
				tail := d.call(0, interp.ExternQueuePushN, false)
				if tail == nil {
					return false
				}
				tail.Parent.Remove(tail)
				return true
			},
		},
		{
			// The staging store leaves the loop for the block that closes
			// the queues, as if the value were invariant (what it stores
			// there is beside the point; a constant keeps the module
			// SSA-valid): every chunk goes out holding stale cells.
			Name: "staging_store_hoisted_out_of_loop",
			Want: []string{"staging store of value queue", "does not execute exactly once per iteration"},
			seed: func(d *dswpFamily) bool {
				push, cl := d.call(0, interp.ExternQueuePushN, true), d.call(0, interp.ExternQueueClose, false)
				if push == nil || cl == nil {
					return false
				}
				var store *ir.Instr
				d.stages[0].Instrs(func(in *ir.Instr) bool {
					if in.Opcode == ir.OpStore {
						if addr, _ := in.Ops[1].(*ir.Instr); addr != nil && addr.Opcode == ir.OpPtrAdd && addr.Ops[0] == push.Ops[2] {
							store = in
						}
					}
					return store == nil
				})
				if store == nil {
					return false
				}
				addr := store.Ops[1].(*ir.Instr)
				addr.Parent.Remove(addr)
				store.Parent.Remove(store)
				store.Ops[0] = ir.ConstInt(0)
				cl.Parent.InsertBefore(addr, cl)
				cl.Parent.InsertBefore(store, cl)
				return true
			},
		},
	}
}

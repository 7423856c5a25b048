package fuzz

import (
	"noelle/internal/interp"
	"noelle/internal/ir"
	"noelle/internal/verify"
)

// Miscompile is one way a buggy DSWP or HELIX generator could break its
// communication protocol, as a mutation of a comm-clean lowering. The
// mutations alter the IR only and keep it SSA-valid: the lowering's
// protocol record still declares the original intent, and that mismatch
// is what the comm tier exists to name. One table feeds the inject leg,
// the corpus recipes and internal/verify's mutation suite.
type Miscompile struct {
	// Name is the corpus file and subtest name.
	Name string
	// Technique is the lowering the miscompile is seeded into.
	Technique string
	// Want lists what the comm tier must say about the mutated module.
	Want []string
	// seed seeds the miscompile into one lowering, at a site its record
	// names; false, with the lowering left alone, when it has none (no
	// token queue, no carried cell of segment 0).
	seed func(l *verify.Lowering) bool
}

// Apply seeds the miscompile into the first lowering of its technique in
// m that has a site for it, and reports whether one had.
func (mc Miscompile) Apply(m *ir.Module) bool {
	for _, l := range verify.Lowerings(m) {
		if l.Err == nil && l.Proto.Technique == mc.Technique && mc.seed(l) {
			return true
		}
	}
	return false
}

// eachQueue runs seed on the recorded queues of one role until it seeds.
func eachQueue(token bool, seed func(l *verify.Lowering, q verify.Queue) bool) func(*verify.Lowering) bool {
	return func(l *verify.Lowering) bool {
		for _, q := range l.Proto.Queues {
			if q.Token == token && seed(l, q) {
				return true
			}
		}
		return false
	}
}

// bracket finds the wait and the fire of segment 0's signal.
func bracket(l *verify.Lowering) (wait, fire *ir.Instr, ok bool) {
	for _, sig := range l.Proto.Signals {
		if sig.Seg == 0 {
			wait = l.Site(0, sig.Slot, interp.ExternSignalWait, false)
			fire = l.Site(0, sig.Slot, interp.ExternSignalFire, false)
		}
	}
	return wait, fire, wait != nil && fire != nil
}

// remove unlinks in, and reports whether there was one.
func remove(in *ir.Instr) bool {
	if in != nil {
		in.Parent.Remove(in)
	}
	return in != nil
}

// move unlinks in and inserts it before at (after it, when after).
func move(in, at *ir.Instr, after bool) {
	in.Parent.Remove(in)
	if after {
		at.Parent.InsertAfter(in, at)
	} else {
		at.Parent.InsertBefore(in, at)
	}
}

// Miscompiles lists the seeded miscompiles: seven of a DSWP lowering,
// four of a HELIX one.
func Miscompiles() []Miscompile {
	return []Miscompile{
		{
			Name: "dropped_token_push", Technique: verify.DSWP,
			Want: []string{"0 times per chunk (want exactly once)", "not covered by the token chain (missing token link 0>1)"},
			seed: eachQueue(true, func(l *verify.Lowering, q verify.Queue) bool {
				return remove(l.Site(q.From, q.Slot, interp.ExternQueuePush, true))
			}),
		},
		{
			Name: "double_close", Technique: verify.DSWP,
			Want: []string{"(double close)"},
			seed: eachQueue(false, func(l *verify.Lowering, q verify.Queue) bool {
				cl := l.Site(q.From, q.Slot, interp.ExternQueueClose, false)
				if cl != nil {
					cl.Parent.InsertAfter(&ir.Instr{Opcode: ir.OpCall, Ty: cl.Ty, Ops: append([]ir.Value{}, cl.Ops...)}, cl)
				}
				return cl != nil
			}),
		},
		{
			// Sink the per-chunk token push past the loop, next to the
			// close: as many pushes textually, none once per chunk.
			Name: "push_hoisted_out_of_loop", Technique: verify.DSWP,
			Want: []string{"is pushed 2 times after the loop"},
			seed: eachQueue(true, func(l *verify.Lowering, q verify.Queue) bool {
				push := l.Site(q.From, q.Slot, interp.ExternQueuePush, true)
				cl := l.Site(q.From, q.Slot, interp.ExternQueueClose, false)
				if push == nil || cl == nil {
					return false
				}
				move(push, cl, false)
				return true
			}),
		},
		{
			// Point a bulk pop's handle at another queue its stage pops:
			// its own queue starves.
			Name: "retargeted_pop", Technique: verify.DSWP,
			Want: []string{"but never popped"},
			seed: eachQueue(false, func(l *verify.Lowering, q verify.Queue) bool {
				bulk := l.Site(q.To, q.Slot, interp.ExternQueuePopN, true)
				for _, other := range l.Proto.Queues {
					pop := interp.ExternQueuePopN
					if other.Token {
						pop = interp.ExternQueuePop
					}
					if in := l.Site(q.To, other.Slot, pop, true); bulk != nil && other.Slot != q.Slot && in != nil {
						bulk.Ops[1] = in.Ops[1]
						return true
					}
				}
				return false
			}),
		},
		{
			// The consumer's K differs from the producer's.
			Name: "chunk_size_mismatch", Technique: verify.DSWP,
			Want: []string{"chunk-size mismatch on value queue"},
			seed: eachQueue(false, func(l *verify.Lowering, q verify.Queue) bool {
				pop := l.Site(q.To, q.Slot, interp.ExternQueuePopN, true)
				if pop != nil {
					pop.Ops[3] = ir.ConstInt(pop.Ops[3].(*ir.Const).Int / 2)
				}
				return pop != nil
			}),
		},
		{
			// The bulk push before the close is gone: a trip count that
			// is no multiple of K loses its last iterations.
			Name: "tail_chunk_dropped", Technique: verify.DSWP,
			Want: []string{"is never pushed (want one push after the loop, before the close)"},
			seed: eachQueue(false, func(l *verify.Lowering, q verify.Queue) bool {
				return remove(l.Site(q.From, q.Slot, interp.ExternQueuePushN, false))
			}),
		},
		{
			// The staging store leaves the loop for the block that closes
			// the queue, as if the value were invariant (what it stores
			// there is beside the point; a constant keeps the module
			// SSA-valid): every chunk goes out holding stale cells.
			Name: "staging_store_hoisted_out_of_loop", Technique: verify.DSWP,
			Want: []string{"staging store of value queue", "does not execute exactly once per iteration"},
			seed: eachQueue(false, func(l *verify.Lowering, q verify.Queue) bool {
				push := l.Site(q.From, q.Slot, interp.ExternQueuePushN, true)
				cl := l.Site(q.From, q.Slot, interp.ExternQueueClose, false)
				if push == nil || cl == nil {
					return false
				}
				var store *ir.Instr
				l.Tasks[q.From].Instrs(func(in *ir.Instr) bool {
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
				move(store.Ops[1].(*ir.Instr), cl, false)
				move(store, cl, false)
				store.Ops[0] = ir.ConstInt(0)
				return true
			}),
		},
		{
			// Hoist the fire above the wait: the segment body escapes its
			// bracket and workers no longer run it in iteration order.
			Name: "swapped_wait_fire", Technique: verify.HELIX,
			Want: []string{"precedes its wait (happens-before chain is cyclic)"},
			seed: func(l *verify.Lowering) bool {
				wait, fire, ok := bracket(l)
				if ok {
					move(fire, wait, false)
				}
				return ok
			},
		},
		{
			Name: "dropped_fire", Technique: verify.HELIX,
			Want: []string{"awaited but never fired"},
			seed: func(l *verify.Lowering) bool {
				_, fire, ok := bracket(l)
				return ok && remove(fire)
			},
		},
		{
			// Sink the fire from behind the segment's loop into its
			// header: the ticket is handed on after the block's first
			// iteration, and again on every later one.
			Name: "fire_sunk_into_segment_loop", Technique: verify.HELIX,
			Want: []string{"@noelle_signal_fire of segment 0 signal sits in a loop of the task"},
			seed: func(l *verify.Lowering) bool {
				wait, fire, ok := bracket(l)
				if !ok {
					return false
				}
				hdr := wait.Parent.Terminator().Blocks[0]
				move(fire, hdr.Terminator(), false)
				return true
			},
		},
		{
			// The write-back of a carried cell slips behind the fire: the
			// next block may reload the cell before it is written.
			Name: "carried_cell_written_after_fire", Technique: verify.HELIX,
			Want: []string{"carried state of segment 0"},
			seed: func(l *verify.Lowering) bool {
				_, fire, ok := bracket(l)
				if !ok {
					return false
				}
				for _, cell := range l.Proto.Carried {
					for _, in := range fire.Parent.Instrs {
						if cell.Seg != 0 || in.Opcode != ir.OpStore {
							continue
						}
						addr, _ := in.Ops[1].(*ir.Instr)
						if addr == nil || addr.Opcode != ir.OpPtrAdd {
							continue
						}
						if c, _ := addr.Ops[1].(*ir.Const); addr.Ops[0] == ir.Value(l.Tasks[0].Params[0]) && c != nil && c.Int == cell.Slot {
							move(in, fire, true)
							return true
						}
					}
				}
				return false
			},
		},
	}
}

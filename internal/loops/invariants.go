package loops

import (
	"noelle/internal/ir"
	"noelle/internal/pdg"
)

// Invariants is NOELLE's INV abstraction: the set of instructions of a
// loop whose value is the same on every iteration. It is computed with the
// paper's Algorithm 2: an instruction is invariant when everything it
// (transitively) data-depends on inside the loop is invariant. The
// recursion runs over the PDG, so the precision of the underlying alias
// analyses flows directly into invariant detection — the reason Figure 4
// shows NOELLE finding more invariants than the low-level algorithm.
type Invariants struct {
	LS  *LS
	PDG *pdg.Graph
	// impureCall reports whether a call instruction may have externally
	// visible effects (I/O or memory writes) and therefore cannot be
	// invariant. A nil oracle treats every call as impure.
	impureCall func(*ir.Instr) bool
	body       *body
	// state is each body instruction's verdict, by body position.
	state []invState
}

type invState uint8

const (
	unvisited invState = iota
	// onStack marks Algorithm 2's stack s: reaching an instruction whose
	// verdict is still being worked out closes a dependence cycle.
	onStack
	variant
	invariant
)

// NewInvariants runs invariant detection for the loop described by ls,
// using the loop's (or enclosing function's) dependence graph g.
// impureCall may be nil (all calls impure).
func NewInvariants(ls *LS, g *pdg.Graph, impureCall func(*ir.Instr) bool) *Invariants {
	return newInvariants(ls, newBody(ls), g, impureCall)
}

func newInvariants(ls *LS, b *body, g *pdg.Graph, impureCall func(*ir.Instr) bool) *Invariants {
	iv := &Invariants{LS: ls, PDG: g, impureCall: impureCall, body: b, state: make([]invState, len(b.instrs))}
	for i := range b.instrs {
		iv.isInvariant(int32(i))
	}
	return iv
}

// IsInvariant reports whether in is a loop invariant.
func (iv *Invariants) IsInvariant(in *ir.Instr) bool {
	i, ok := iv.body.index[in]
	return ok && iv.state[i] == invariant
}

// List returns the invariant instructions in loop layout order.
func (iv *Invariants) List() []*ir.Instr {
	var out []*ir.Instr
	for i, in := range iv.body.instrs {
		if iv.state[i] == invariant {
			out = append(out, in)
		}
	}
	return out
}

// Count returns the number of invariant instructions.
func (iv *Invariants) Count() int { return len(iv.List()) }

// isInvariant is the paper's Algorithm 2 on the instruction at body
// position i: cycle detection via the stack, then recursion over incoming
// PDG data dependences.
func (iv *Invariants) isInvariant(i int32) bool {
	switch iv.state[i] {
	case onStack:
		return false // dependence cycle => varies across iterations
	case variant, invariant:
		return iv.state[i] == invariant
	}
	in := iv.body.instrs[i]
	if !eligibleInvariant(in) || in.Opcode == ir.OpCall && (iv.impureCall == nil || iv.impureCall(in)) {
		iv.state[i] = variant
		return false
	}
	iv.state[i] = onStack
	ok := iv.dependencesInvariant(in)
	iv.state[i] = variant
	if ok {
		iv.state[i] = invariant
	}
	return ok
}

// dependencesInvariant reports whether everything in depends on inside
// the loop is invariant and no in-loop write may change what it reads.
func (iv *Invariants) dependencesInvariant(in *ir.Instr) bool {
	for _, e := range iv.PDG.InEdges(in) {
		if e.Control {
			// Control dependence on the loop's own branches does not make
			// a value vary; LICM-style invariance is about data.
			continue
		}
		j, ok := iv.body.index[e.From]
		if !ok {
			continue // defined outside the loop
		}
		if e.Memory && mayWriteMemory(e.From) {
			// A store (or writing call) inside the loop may change what
			// this instruction reads.
			return false
		}
		if !iv.isInvariant(j) {
			return false
		}
	}
	// Memory conflicts are recorded once per pair, directed by layout
	// order: a store *after* this load in the body still clobbers it on
	// the next iteration, so outgoing memory edges to in-loop writers
	// disqualify too.
	for _, e := range iv.PDG.OutEdges(in) {
		if !e.Memory {
			continue
		}
		if _, ok := iv.body.index[e.To]; ok && mayWriteMemory(e.To) {
			return false
		}
	}
	return true
}

func mayWriteMemory(in *ir.Instr) bool {
	return in.Opcode == ir.OpStore || in.Opcode == ir.OpCall
}

// eligibleInvariant excludes instructions that can never be hoisted or
// whose "value" is not a per-iteration computation.
func eligibleInvariant(in *ir.Instr) bool {
	switch in.Opcode {
	case ir.OpPhi, ir.OpStore, ir.OpAlloca, ir.OpBr, ir.OpCondBr, ir.OpRet:
		return false
	case ir.OpCall:
		// A call is eligible; memory dependences (if its callees touch
		// memory written in the loop) are what disqualify it, via the PDG.
		return true
	}
	return true
}

package loops

import "noelle/internal/ir"

// IV is one induction variable of a loop: an SCC of the loop's register
// dependence graph whose cycle is a header phi updated by a constant (or
// loop-invariant) step each iteration. NOELLE's detection works on the SCC
// structure, so it is independent of the loop's while/do-while shape —
// the property Section 4.3 of the paper credits for finding 385 governing
// IVs where the low-level def-use approach finds 11.
type IV struct {
	Phi *ir.Instr // the header phi carrying the IV
	// SCC is the set of instructions forming the IV's update cycle.
	SCC []*ir.Instr
	// Start is the value of the IV on loop entry.
	Start ir.Value
	// Step is the net per-iteration increment; StepConst is set when it is
	// a compile-time constant.
	Step      ir.Value
	StepConst *int64
	// Governing is true when this IV controls the number of iterations.
	Governing bool
	// ExitCmp is the comparison instruction governing the exit (set only
	// for governing IVs), and ExitBound its loop-invariant bound operand.
	ExitCmp   *ir.Instr
	ExitBound ir.Value
	// Derived lists instructions that are affine functions of this IV.
	Derived []*ir.Instr
}

// StepValue returns the constant step, and ok=false for non-constant steps.
func (iv *IV) StepValue() (int64, bool) {
	if iv.StepConst == nil {
		return 0, false
	}
	return *iv.StepConst, true
}

// IVAnalysis holds the induction variables of one loop.
type IVAnalysis struct {
	LS  *LS
	IVs []*IV
	// byPhi indexes IVs by their carrying phi.
	byPhi map[*ir.Instr]*IV
}

// GoverningIV returns the loop's governing induction variable, or nil.
func (a *IVAnalysis) GoverningIV() *IV {
	for _, iv := range a.IVs {
		if iv.Governing {
			return iv
		}
	}
	return nil
}

// IVForPhi returns the IV carried by phi, or nil.
func (a *IVAnalysis) IVForPhi(phi *ir.Instr) *IV { return a.byPhi[phi] }

// InCycle reports whether v is an instruction of the IV's update cycle:
// the one spelling of that question for the code generators, which ask it
// of exit-compare operands, of live-outs and of values a pipeline stage
// may recompute.
func (iv *IV) InCycle(v ir.Value) bool {
	for _, x := range iv.SCC {
		if ir.Value(x) == v {
			return true
		}
	}
	return false
}

// CycleOf returns the IV whose update cycle contains v, or nil.
func (a *IVAnalysis) CycleOf(v ir.Value) *IV {
	for _, iv := range a.IVs {
		if iv.InCycle(v) {
			return iv
		}
	}
	return nil
}

// NewIVAnalysis detects the induction variables of ls. inv may be nil;
// when provided it widens "loop-invariant step" beyond constants.
func NewIVAnalysis(ls *LS, inv *Invariants) *IVAnalysis {
	b := newBody(ls)
	return newIVAnalysis(ls, b, registerSCCs(b), inv)
}

// newIVAnalysis classifies the loop's cyclic register SCCs (registerSCCs).
func newIVAnalysis(ls *LS, b *body, regSCCs [][]*ir.Instr, inv *Invariants) *IVAnalysis {
	a := &IVAnalysis{LS: ls, byPhi: map[*ir.Instr]*IV{}}
	isInvariantVal := func(v ir.Value) bool {
		if ls.DefinedOutside(v) {
			return true
		}
		if inv != nil {
			if in, ok := v.(*ir.Instr); ok {
				return inv.IsInvariant(in)
			}
		}
		return false
	}
	for _, scc := range regSCCs {
		iv := classifyIVSCC(ls, scc, isInvariantVal)
		if iv == nil {
			continue
		}
		a.IVs = append(a.IVs, iv)
		a.byPhi[iv.Phi] = iv
	}

	a.detectGoverning()
	a.detectDerived(b, isInvariantVal)
	return a
}

// classifyIVSCC checks whether an SCC is a well-formed IV cycle: exactly
// one header phi, all other members add/sub with invariant addends, and the
// cycle walks from the phi through the adds back to the phi.
func classifyIVSCC(ls *LS, scc []*ir.Instr, isInv func(ir.Value) bool) *IV {
	var phi *ir.Instr
	for _, in := range scc {
		if in.Opcode == ir.OpPhi {
			if in.Parent != ls.Header || phi != nil {
				return nil
			}
			phi = in
		}
	}
	if phi == nil {
		return nil
	}
	inSCC := map[*ir.Instr]bool{}
	for _, in := range scc {
		inSCC[in] = true
	}
	// Every non-phi member must be add/sub of one SCC value and one
	// invariant addend.
	netConst := int64(0)
	constKnown := true
	var stepVal ir.Value
	for _, in := range scc {
		if in == phi {
			continue
		}
		if in.Opcode != ir.OpAdd && in.Opcode != ir.OpSub {
			return nil
		}
		var addend ir.Value
		sccOps := 0
		for i, op := range in.Ops {
			if d, ok := op.(*ir.Instr); ok && inSCC[d] {
				sccOps++
				if in.Opcode == ir.OpSub && i == 0 {
					// x = inv - iv is not a step update.
					if _, isConst := in.Ops[1].(*ir.Const); !isConst {
						return nil
					}
				}
				continue
			}
			addend = op
		}
		if sccOps != 1 || addend == nil || !isInv(addend) {
			return nil
		}
		if c, ok := addend.(*ir.Const); ok {
			if in.Opcode == ir.OpSub {
				netConst -= c.Int
			} else {
				netConst += c.Int
			}
		} else {
			constKnown = false
			stepVal = addend
		}
	}
	iv := &IV{
		Phi:   phi,
		SCC:   scc,
		Start: ls.EntryIncoming(phi),
	}
	if constKnown {
		c := netConst
		iv.StepConst = &c
		iv.Step = ir.ConstInt(c)
	} else {
		iv.Step = stepVal
	}
	return iv
}

// detectGoverning finds the IV that controls the loop's exit: an exiting
// block whose branch condition compares an IV-cycle value against a
// loop-invariant bound. Works for while and do-while shapes alike.
func (a *IVAnalysis) detectGoverning() {
	ls := a.LS
	if len(ls.ExitingBlocks) != 1 {
		return // multi-exit loops have no single governing IV
	}
	term := ls.ExitingBlocks[0].Terminator()
	if term == nil || term.Opcode != ir.OpCondBr {
		return
	}
	cmp, ok := term.Ops[0].(*ir.Instr)
	if !ok || !cmp.Opcode.IsCompare() {
		return
	}
	for _, iv := range a.IVs {
		inCycle := map[*ir.Instr]bool{}
		for _, in := range iv.SCC {
			inCycle[in] = true
		}
		for i, op := range cmp.Ops {
			d, ok := op.(*ir.Instr)
			if !ok || !inCycle[d] {
				continue
			}
			bound := cmp.Ops[1-i]
			if !ls.DefinedOutside(bound) {
				continue
			}
			iv.Governing = true
			iv.ExitCmp = cmp
			iv.ExitBound = bound
			return
		}
	}
}

// detectDerived marks in-loop instructions that are affine in some IV:
// mul/add/sub of an IV (or derived) value with invariants.
func (a *IVAnalysis) detectDerived(b *body, isInv func(ir.Value) bool) {
	for _, iv := range a.IVs {
		derived := map[*ir.Instr]bool{}
		for _, in := range iv.SCC {
			derived[in] = true
		}
		for changed := true; changed; {
			changed = false
			for _, in := range b.instrs {
				if derived[in] {
					continue
				}
				switch in.Opcode {
				case ir.OpAdd, ir.OpSub, ir.OpMul, ir.OpShl:
					fromIV, other := 0, true
					for _, op := range in.Ops {
						if d, ok := op.(*ir.Instr); ok && derived[d] {
							fromIV++
						} else if !isInv(op) {
							other = false
						}
					}
					if fromIV == 1 && other {
						derived[in] = true
						changed = true
					}
				}
			}
		}
		for _, in := range iv.SCC {
			delete(derived, in)
		}
		for _, in := range b.instrs {
			if derived[in] {
				iv.Derived = append(iv.Derived, in)
			}
		}
	}
}

// TripCount returns the compile-time trip count when the loop has a
// governing IV with constant start, step, and bound, and a simple compare;
// ok=false otherwise.
func (a *IVAnalysis) TripCount() (int64, bool) {
	iv := a.GoverningIV()
	if iv == nil || iv.StepConst == nil || *iv.StepConst == 0 {
		return 0, false
	}
	start, ok := iv.Start.(*ir.Const)
	if !ok {
		return 0, false
	}
	bound, ok := iv.ExitBound.(*ir.Const)
	if !ok {
		return 0, false
	}
	step := *iv.StepConst
	span := bound.Int - start.Int
	var n int64
	switch iv.ExitCmp.Opcode {
	case ir.OpLt, ir.OpGt:
		n = (span + step - sign(step)) / step
	case ir.OpLe, ir.OpGe:
		n = (span+step-sign(step))/step + 1
	case ir.OpNe:
		if span%step != 0 {
			return 0, false
		}
		n = span / step
	default:
		return 0, false
	}
	if n < 0 {
		return 0, false
	}
	return n, true
}

func sign(x int64) int64 {
	if x < 0 {
		return -1
	}
	return 1
}

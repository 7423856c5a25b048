package analysis

import "noelle/internal/ir"

// Use is a single operand slot that reads a value.
type Use struct {
	User  *ir.Instr
	Index int
}

// DefUse maps every value defined or used in a function to its uses.
type DefUse struct {
	Fn   *ir.Function
	Uses map[ir.Value][]Use
}

// NewDefUse builds def-use chains for f.
func NewDefUse(f *ir.Function) *DefUse {
	du := &DefUse{Fn: f, Uses: map[ir.Value][]Use{}}
	f.Instrs(func(in *ir.Instr) bool {
		for i, op := range in.Ops {
			switch op.(type) {
			case *ir.Instr, *ir.Param, *ir.Global, *ir.Function:
				du.Uses[op] = append(du.Uses[op], Use{User: in, Index: i})
			}
		}
		return true
	})
	return du
}

// HasUses reports whether v has at least one use.
func (du *DefUse) HasUses(v ir.Value) bool { return len(du.Uses[v]) > 0 }

// SoleUser returns the unique user instruction of v, or nil.
func (du *DefUse) SoleUser(v ir.Value) *ir.Instr {
	us := du.Uses[v]
	if len(us) != 1 {
		return nil
	}
	return us[0].User
}

package ir

import "fmt"

// Function is an IR function: a list of basic blocks with the entry first.
// A function with no blocks is a declaration (an extern such as print_i64,
// or a runtime hook injected by a custom tool).
type Function struct {
	Nam    string
	Sig    *Type // FuncKind
	Params []*Param
	Blocks []*Block
	Parent *Module
	ID     int // deterministic ID; -1 if unassigned
	MD     Metadata

	nextName int // counter for FreshName
}

// NewFunction creates a function with the given name and signature, and
// materializes its parameter values with the provided names.
func NewFunction(name string, sig *Type, paramNames ...string) *Function {
	if sig.Kind != FuncKind {
		panic("ir.NewFunction: signature must be a function type")
	}
	f := &Function{Nam: name, Sig: sig, ID: -1}
	for i, pt := range sig.Params {
		pn := fmt.Sprintf("arg%d", i)
		if i < len(paramNames) && paramNames[i] != "" {
			pn = paramNames[i]
		}
		f.Params = append(f.Params, &Param{Nam: pn, Ty: pt, Parent: f, Index: i})
	}
	return f
}

// Type returns the function's type as a value (usable for function pointers).
func (f *Function) Type() *Type { return f.Sig }

// Ident returns the function's identifier.
func (f *Function) Ident() string { return "@" + f.Nam }

// IsDeclaration reports whether the function has no body.
func (f *Function) IsDeclaration() bool { return len(f.Blocks) == 0 }

// Entry returns the entry block, or nil for declarations.
func (f *Function) Entry() *Block {
	if len(f.Blocks) == 0 {
		return nil
	}
	return f.Blocks[0]
}

// NewBlock appends a new basic block with the given label. If the label is
// empty or already taken a unique one is generated.
func (f *Function) NewBlock(label string) *Block {
	if label == "" {
		label = "bb"
	}
	name := label
	for i := 0; f.BlockByName(name) != nil; i++ {
		name = fmt.Sprintf("%s.%d", label, f.nextName)
		f.nextName++
	}
	b := &Block{Nam: name, Parent: f, ID: -1}
	f.Blocks = append(f.Blocks, b)
	return b
}

// BlockByName returns the block labelled name, or nil.
func (f *Function) BlockByName(name string) *Block {
	for _, b := range f.Blocks {
		if b.Nam == name {
			return b
		}
	}
	return nil
}

// RemoveBlock deletes block b from the function. It does not patch CFG
// edges or phis; callers (e.g. CFG simplification) must do so first.
func (f *Function) RemoveBlock(b *Block) {
	for i, x := range f.Blocks {
		if x == b {
			f.Blocks = append(f.Blocks[:i], f.Blocks[i+1:]...)
			b.Parent = nil
			return
		}
	}
}

// FreshName returns an SSA name unique within the function, derived from
// the given prefix.
func (f *Function) FreshName(prefix string) string {
	if prefix == "" {
		prefix = "t"
	}
	name := fmt.Sprintf("%s%d", prefix, f.nextName)
	f.nextName++
	return name
}

// Instrs calls fn for every instruction in the function, in block order.
// If fn returns false the walk stops.
func (f *Function) Instrs(fn func(*Instr) bool) {
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if !fn(in) {
				return
			}
		}
	}
}

// NumInstrs returns the number of instructions in the function body.
func (f *Function) NumInstrs() int {
	n := 0
	for _, b := range f.Blocks {
		n += len(b.Instrs)
	}
	return n
}

// ReplaceAllUses rewrites every operand use of old inside the function body
// to new. It does not touch other functions.
func (f *Function) ReplaceAllUses(old, new Value) {
	f.Instrs(func(in *Instr) bool {
		in.ReplaceUsesOf(old, new)
		return true
	})
}

// SetMD attaches metadata key=value to the function.
func (f *Function) SetMD(key, value string) {
	if f.MD == nil {
		f.MD = Metadata{}
	}
	f.MD[key] = value
}

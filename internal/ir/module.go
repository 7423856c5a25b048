package ir

import (
	"fmt"
)

// Module is a translation unit: globals plus functions. noelle-whole-ir
// links all of a program's modules into one module so that whole-program
// analyses (alias analysis, the PDG, the complete call graph) can run.
type Module struct {
	Name      string
	Globals   []*Global
	Functions []*Function
	MD        Metadata
	// LinkOptions records the options to use when producing the final
	// binary (the paper's noelle-whole-ir embeds compilation options as
	// metadata; we keep them as a string list).
	LinkOptions []string
}

// NewModule creates an empty module.
func NewModule(name string) *Module { return &Module{Name: name} }

// AddFunction appends f to the module and sets its parent.
func (m *Module) AddFunction(f *Function) *Function {
	f.Parent = m
	m.Functions = append(m.Functions, f)
	return f
}

// AddGlobal appends g to the module.
func (m *Module) AddGlobal(g *Global) *Global {
	m.Globals = append(m.Globals, g)
	return g
}

// FunctionByName returns the function named name, or nil.
func (m *Module) FunctionByName(name string) *Function {
	for _, f := range m.Functions {
		if f.Nam == name {
			return f
		}
	}
	return nil
}

// GlobalByName returns the global named name, or nil.
func (m *Module) GlobalByName(name string) *Global {
	for _, g := range m.Globals {
		if g.Nam == name {
			return g
		}
	}
	return nil
}

// RemoveFunction deletes the function from the module (by identity).
func (m *Module) RemoveFunction(f *Function) {
	for i, x := range m.Functions {
		if x == f {
			m.Functions = append(m.Functions[:i], m.Functions[i+1:]...)
			f.Parent = nil
			return
		}
	}
}

// DeclareFunction returns the declaration (or existing function) with the
// given name and signature, creating it if needed.
func (m *Module) DeclareFunction(name string, sig *Type) *Function {
	if f := m.FunctionByName(name); f != nil {
		return f
	}
	f := NewFunction(name, sig)
	return m.AddFunction(f)
}

// SetMD attaches module-level metadata.
func (m *Module) SetMD(key, value string) {
	if m.MD == nil {
		m.MD = Metadata{}
	}
	m.MD[key] = value
}

// AssignIDs numbers every function, block and instruction with
// deterministic IDs (the paper's "deterministic IDs" abstraction). IDs are
// stable across print/parse round-trips because they follow the syntactic
// order of the module.
func (m *Module) AssignIDs() {
	nextInstr := 0
	for fi, f := range m.Functions {
		f.ID = fi
		for bi, b := range f.Blocks {
			b.ID = bi
			for _, in := range b.Instrs {
				in.ID = nextInstr
				nextInstr++
			}
		}
	}
}

// InstrByID returns the instruction with the given deterministic ID. IDs
// must have been assigned by AssignIDs since the last mutation.
func (m *Module) InstrByID(id int) *Instr {
	for _, f := range m.Functions {
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				if in.ID == id {
					return in
				}
			}
		}
	}
	return nil
}

// NumInstrs returns the number of instructions in the module: the paper's
// proxy for binary size in the DeadFunctionElimination evaluation.
func (m *Module) NumInstrs() int {
	n := 0
	for _, f := range m.Functions {
		n += f.NumInstrs()
	}
	return n
}

// Instrs calls fn for every instruction in the module.
func (m *Module) Instrs(fn func(*Function, *Instr) bool) {
	for _, f := range m.Functions {
		stop := false
		f.Instrs(func(in *Instr) bool {
			if !fn(f, in) {
				stop = true
				return false
			}
			return true
		})
		if stop {
			return
		}
	}
}

// String summarises the module for debugging.
func (m *Module) String() string {
	return fmt.Sprintf("module %q: %d globals, %d functions, %d instrs",
		m.Name, len(m.Globals), len(m.Functions), m.NumInstrs())
}

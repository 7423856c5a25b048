package ir

import "strconv"

// Value is anything that can appear as an instruction operand: constants,
// globals, function parameters, functions (for function pointers), and
// instructions themselves.
type Value interface {
	// Type returns the type of the value.
	Type() *Type
	// Ident returns the value's printable identifier (e.g. "%x", "@f", "42").
	Ident() string
}

// Const is a constant scalar value (i1, i64 or f64).
type Const struct {
	Ty  *Type
	Int int64   // payload for i1/i64
	Flt float64 // payload for f64
}

// ConstInt returns the i64 constant v.
func ConstInt(v int64) *Const { return &Const{Ty: I64Type, Int: v} }

// ConstBool returns the i1 constant for b.
func ConstBool(b bool) *Const {
	v := int64(0)
	if b {
		v = 1
	}
	return &Const{Ty: I1Type, Int: v}
}

// ConstFloat returns the f64 constant v.
func ConstFloat(v float64) *Const { return &Const{Ty: F64Type, Flt: v} }

// Type returns the constant's type.
func (c *Const) Type() *Type { return c.Ty }

// Ident renders the constant literal.
func (c *Const) Ident() string {
	if c.Ty.IsFloat() {
		return strconv.FormatFloat(c.Flt, 'g', -1, 64)
	}
	return strconv.FormatInt(c.Int, 10)
}

// Param is a formal parameter of a function.
type Param struct {
	Nam    string
	Ty     *Type
	Parent *Function
	Index  int
}

// Type returns the parameter's type.
func (p *Param) Type() *Type { return p.Ty }

// Ident returns the parameter's SSA identifier.
func (p *Param) Ident() string { return "%" + p.Nam }

// Global is a module-level variable. Its value is a pointer to the storage.
type Global struct {
	Nam  string
	Elem *Type // type of the storage, not of the pointer
	// Init holds the initial scalar values for the storage, flattened; nil
	// means zero-initialized. For scalar globals len(Init) == 1.
	Init []int64
	// FInit holds float initializers when Elem's scalar type is f64.
	FInit []float64
	MD    Metadata
}

// Type returns the type of the global as a value: a pointer to its storage.
func (g *Global) Type() *Type { return PointerTo(g.Elem) }

// Ident returns the global's identifier.
func (g *Global) Ident() string { return "@" + g.Nam }

// ScalarElem returns the innermost scalar type of the global's storage.
func (g *Global) ScalarElem() *Type {
	t := g.Elem
	for t.Kind == ArrayKind {
		t = t.Elem
	}
	return t
}

// Metadata is a set of string key/value attachments used by noelle tools to
// embed information (profiles, dependence graphs, IDs) inside the IR.
type Metadata map[string]string

// Get returns the metadata value for key, or "" if absent.
func (m Metadata) Get(key string) string {
	if m == nil {
		return ""
	}
	return m[key]
}

// Has reports whether key is present.
func (m Metadata) Has(key string) bool {
	if m == nil {
		return false
	}
	_, ok := m[key]
	return ok
}

// Clone returns a copy of the metadata set.
func (m Metadata) Clone() Metadata {
	if m == nil {
		return nil
	}
	out := make(Metadata, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

func fmtIdent(v Value) string {
	if v == nil {
		return "<nil>"
	}
	return v.Ident()
}

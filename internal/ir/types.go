// Package ir implements the low-level SSA intermediate representation that
// the NOELLE layer is built upon. It plays the role LLVM IR plays in the
// paper: a typed, language-agnostic SSA form with explicit memory
// (alloca/load/store), pointer arithmetic, direct and indirect calls, and
// per-entity metadata used by the noelle-* tools to embed profiles and
// dependence graphs.
package ir

import (
	"fmt"
	"strings"
)

// TypeKind discriminates the kinds of IR types.
type TypeKind int

// The kinds of types the IR supports.
const (
	VoidKind TypeKind = iota
	I1Kind            // booleans (comparison results)
	I64Kind           // 64-bit integers
	F64Kind           // 64-bit floats
	PtrKind           // typed pointers
	ArrayKind
	FuncKind
)

// Type describes the type of a value. Types are interned per-construction
// helper where practical, but identity is structural: use Equal, not ==.
type Type struct {
	Kind   TypeKind
	Elem   *Type   // PtrKind: pointee; ArrayKind: element
	Len    int     // ArrayKind: number of elements
	Params []*Type // FuncKind
	Ret    *Type   // FuncKind
}

// Singleton primitive types.
var (
	VoidType = &Type{Kind: VoidKind}
	I1Type   = &Type{Kind: I1Kind}
	I64Type  = &Type{Kind: I64Kind}
	F64Type  = &Type{Kind: F64Kind}
)

// PointerTo returns the pointer type with pointee elem.
func PointerTo(elem *Type) *Type { return &Type{Kind: PtrKind, Elem: elem} }

// ArrayOf returns the array type [n x elem].
func ArrayOf(elem *Type, n int) *Type { return &Type{Kind: ArrayKind, Elem: elem, Len: n} }

// FuncOf returns the function type with the given parameters and result.
func FuncOf(ret *Type, params ...*Type) *Type {
	return &Type{Kind: FuncKind, Params: params, Ret: ret}
}

// Equal reports whether t and u are structurally identical types.
func (t *Type) Equal(u *Type) bool {
	if t == u {
		return true
	}
	if t == nil || u == nil || t.Kind != u.Kind {
		return false
	}
	switch t.Kind {
	case PtrKind:
		return t.Elem.Equal(u.Elem)
	case ArrayKind:
		return t.Len == u.Len && t.Elem.Equal(u.Elem)
	case FuncKind:
		if !t.Ret.Equal(u.Ret) || len(t.Params) != len(u.Params) {
			return false
		}
		for i := range t.Params {
			if !t.Params[i].Equal(u.Params[i]) {
				return false
			}
		}
		return true
	default:
		return true
	}
}

// IsFloat reports whether t is the float type.
func (t *Type) IsFloat() bool { return t.Kind == F64Kind }

// IsPtr reports whether t is a pointer type.
func (t *Type) IsPtr() bool { return t.Kind == PtrKind }

// Size returns the size of a value of type t in abstract bytes. The flat
// memory model of the interpreter uses 8-byte cells for every scalar.
func (t *Type) Size() int {
	switch t.Kind {
	case VoidKind:
		return 0
	case ArrayKind:
		return t.Len * t.Elem.Size()
	case FuncKind:
		return 8
	default:
		return 8
	}
}

// Fits reports whether a value of type t takes at least one and at most
// limit bytes, its size computed without wrapping: the one check to make
// before trusting Size, which multiplies in int.
func Fits(t *Type, limit int64) bool {
	if t.Kind == ArrayKind {
		return t.Len > 0 && Fits(t.Elem, limit/int64(t.Len))
	}
	return t.Size() > 0 && int64(t.Size()) <= limit
}

// String renders the type in the textual IR syntax.
func (t *Type) String() string {
	if t == nil {
		return "<nil-type>"
	}
	switch t.Kind {
	case VoidKind:
		return "void"
	case I1Kind:
		return "i1"
	case I64Kind:
		return "i64"
	case F64Kind:
		return "f64"
	case PtrKind:
		return "ptr<" + t.Elem.String() + ">"
	case ArrayKind:
		return fmt.Sprintf("[%d x %s]", t.Len, t.Elem)
	case FuncKind:
		var b strings.Builder
		b.WriteString("fn(")
		for i, p := range t.Params {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(p.String())
		}
		b.WriteString(") ")
		b.WriteString(t.Ret.String())
		return b.String()
	default:
		return fmt.Sprintf("<type kind %d>", t.Kind)
	}
}

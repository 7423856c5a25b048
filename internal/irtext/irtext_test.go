package irtext

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"noelle/internal/ir"
)

const sample = `
module "demo"
linkopt "-lm"
meta "noelle.version" = "1"

global @tab : [4 x i64] = { 1, 2, 3, 4 }
global @seed : i64 = { 99 }
global @buf : [8 x f64] zeroinit

declare @print_i64 : fn(i64) void

func @kernel(%n: i64, %p: ptr<i64>) i64 !{hot="1"} {
entry:
  %acc = alloca i64, 1
  store i64 0, %acc
  br header
header:
  %i = phi i64 [ 0, entry ], [ %i2, body ]
  %c = lt %i, %n
  condbr %c, body, exit
body:
  %q = ptradd %p, %i
  %v = load i64, %q
  %old = load i64, %acc
  %new = add %old, %v
  store i64 %new, %acc !{note="acc update"}
  %i2 = add %i, 1
  br header
exit:
  %r = load i64, %acc
  call void @print_i64(%r)
  ret %r
}

func @main() i64 {
entry:
  %t = ptradd @tab, 0
  %r = call i64 @kernel(4, %t)
  %f = sitofp %r
  %g = fadd %f, 0.5
  %h = fptosi %g
  ret %h
}
`

func TestParseSample(t *testing.T) {
	m, err := Parse(sample)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if m.Name != "demo" {
		t.Errorf("module name = %q", m.Name)
	}
	if len(m.LinkOptions) != 1 || m.LinkOptions[0] != "-lm" {
		t.Errorf("linkopts = %v", m.LinkOptions)
	}
	if m.MD.Get("noelle.version") != "1" {
		t.Errorf("module metadata = %v", m.MD)
	}
	k := m.FunctionByName("kernel")
	if k == nil {
		t.Fatal("kernel not found")
	}
	if k.MD.Get("hot") != "1" {
		t.Errorf("kernel metadata = %v", k.MD)
	}
	if len(k.Blocks) != 4 {
		t.Errorf("kernel blocks = %d, want 4", len(k.Blocks))
	}
	g := m.GlobalByName("tab")
	if g == nil || len(g.Init) != 4 || g.Init[3] != 4 {
		t.Errorf("global tab = %+v", g)
	}
	if m.FunctionByName("print_i64") == nil || !m.FunctionByName("print_i64").IsDeclaration() {
		t.Error("print_i64 declaration missing")
	}
}

// TestRoundTrip checks print -> parse -> print reaches a fixed point.
func TestRoundTrip(t *testing.T) {
	m1, err := Parse(sample)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	s1 := ir.Print(m1)
	m2, err := Parse(s1)
	if err != nil {
		t.Fatalf("reparse: %v\n%s", err, s1)
	}
	s2 := ir.Print(m2)
	if s1 != s2 {
		t.Errorf("round trip not a fixed point:\n--- first ---\n%s\n--- second ---\n%s", s1, s2)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct{ name, src string }{
		{"empty", ""},
		{"bad keyword", `module "m"` + "\nbogus"},
		{"undefined value", `module "m"` + `
func @f() i64 {
entry:
  ret %nope
}`},
		{"undefined block", `module "m"` + `
func @f() i64 {
entry:
  br nowhere
}`},
		{"duplicate label", `module "m"` + `
func @f() i64 {
entry:
  br entry
entry:
  ret 0
}`},
		{"type mismatch", `module "m"` + `
func @f() i64 {
entry:
  %x = add 1, 2.5
  ret %x
}`},
		{"redefined value", `module "m"` + `
func @f() i64 {
entry:
  %x = add 1, 2
  %x = add 3, 4
  ret %x
}`},
		{"not an infinity", `module "m"` + `
func @f() f64 {
entry:
  %x = fadd -Infinity, 1.0
  ret %x
}`},
		{"ptradd cycle", `module "m"` + `
func @f() i64 {
entry:
  %x = ptradd %x, 1
  ret 0
}`},
	}
	for _, c := range cases {
		if _, err := Parse(c.src); err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
}

func TestParseFloatLexing(t *testing.T) {
	src := `module "m"
func @f() f64 {
entry:
  %a = fadd 1.5, -2.5
  %b = fmul %a, 1e3
  ret %b
}`
	m, err := Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	f := m.FunctionByName("f")
	in := f.Blocks[0].Instrs[0]
	c := in.Ops[1].(*ir.Const)
	if c.Flt != -2.5 {
		t.Errorf("negative float constant = %v", c.Flt)
	}
}

// TestFloatConstantsRoundTrip: every float constant ir.FormatFloat can
// print — the infinities, NaN, negative zero, extremes and random bit
// patterns — parses back, as an operand and as a global initializer.
// Print → parse → print is a fixed point, the bits survive for every
// non-NaN value, and NaN stays NaN.
func TestFloatConstantsRoundTrip(t *testing.T) {
	vals := []float64{math.Inf(1), math.Inf(-1), math.NaN(), math.Copysign(0, -1), 0, 1e300, -1e-300,
		math.MaxFloat64, math.SmallestNonzeroFloat64, 3}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		vals = append(vals, math.Float64frombits(rng.Uint64()))
	}

	m := ir.NewModule("floats")
	m.AddGlobal(&ir.Global{Nam: "tab", Elem: ir.ArrayOf(ir.F64Type, len(vals)), FInit: vals})
	f := ir.NewFunction("f", ir.FuncOf(ir.F64Type))
	m.AddFunction(f)
	b := ir.NewBuilder()
	b.SetInsertionBlock(f.NewBlock("entry"))
	acc := ir.Value(ir.ConstFloat(0))
	for i, v := range vals {
		acc = b.CreateBinOp(ir.OpFAdd, acc, ir.ConstFloat(v), fmt.Sprintf("a%d", i))
	}
	b.CreateRet(acc)

	s1 := ir.Print(m)
	m2, err := Parse(s1)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if s2 := ir.Print(m2); s2 != s1 {
		t.Fatalf("print → parse → print is not a fixed point")
	}
	same := func(what string, want, got float64) {
		if math.IsNaN(want) {
			if !math.IsNaN(got) {
				t.Errorf("%s: NaN came back as %v", what, got)
			}
		} else if math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("%s: %v (%#x) came back as %v (%#x)", what, want, math.Float64bits(want), got, math.Float64bits(got))
		}
	}
	g := m2.GlobalByName("tab")
	for i, v := range vals {
		same(fmt.Sprintf("global [%d]", i), v, g.FInit[i])
		same(fmt.Sprintf("operand %d", i), v, m2.FunctionByName("f").Blocks[0].Instrs[i].Ops[1].(*ir.Const).Flt)
	}
}

// TestParseForwardTypedOperands: a ptradd or select may read one laid
// out further down the function; its type still follows.
func TestParseForwardTypedOperands(t *testing.T) {
	src := `module "m"
func @f(%p: ptr<[4 x i64]>, %c: i1) i64 {
entry:
  br def
use:
  %s = select %c, %b, %a
  %v = load i64, %s
  ret %v
mid:
  %b = ptradd %a, 1
  br use
def:
  %a = ptradd %p, 0
  br mid
}`
	m, err := Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	m.FunctionByName("f").Instrs(func(in *ir.Instr) bool {
		if in.Opcode == ir.OpPtrAdd || in.Opcode == ir.OpSelect {
			if got := in.Type().String(); got != "ptr<i64>" {
				t.Errorf("%%%s has type %s, want ptr<i64>", in.Nam, got)
			}
		}
		return true
	})
}

func TestParseIndirectCall(t *testing.T) {
	src := `module "m"
func @callee(%x: i64) i64 {
entry:
  ret %x
}
func @main() i64 {
entry:
  %fp = alloca fn(i64) i64, 1
  store fn(i64) i64 @callee, %fp
  %f = load fn(i64) i64, %fp
  %r = call i64 %f(7)
  ret %r
}`
	m, err := Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	main := m.FunctionByName("main")
	var call *ir.Instr
	main.Instrs(func(in *ir.Instr) bool {
		if in.Opcode == ir.OpCall {
			call = in
		}
		return true
	})
	if call == nil {
		t.Fatal("no call found")
	}
	if call.CalledFunction() != nil {
		t.Error("indirect call should have no static callee")
	}
}

// TestModuleFingerprintSurvivesPrintParse: the session key the compile
// service uses must be identical for a module and its textual round
// trip — that is what lets clients ship re-printed IR and still land on
// the resident warm session.
func TestModuleFingerprintSurvivesPrintParse(t *testing.T) {
	m1, err := Parse(sample)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	m2, err := Parse(ir.Print(m1))
	if err != nil {
		t.Fatalf("reparse: %v", err)
	}
	a, b := ir.ModuleFingerprint(m1), ir.ModuleFingerprint(m2)
	if a != b {
		t.Errorf("module fingerprint changed across print->parse: %s != %s", a.Short(), b.Short())
	}
}

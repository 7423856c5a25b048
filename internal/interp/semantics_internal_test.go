package interp

import (
	"math"
	"testing"

	"noelle/internal/ir"
	"noelle/internal/irtext"
	"noelle/internal/passes"
)

// Edge operands, as raw register bits.
var (
	intGrid = []uint64{0, 1, ^uint64(0), 63, 64, 65, 1 << 63, math.MaxInt64}

	floatGrid = func() []uint64 {
		var g []uint64
		for _, f := range []float64{0, math.Copysign(0, -1), 1.5, -2.25, math.Inf(1), math.Inf(-1), math.NaN(), 1e300} {
			g = append(g, math.Float64bits(f))
		}
		return g
	}()
)

// opTypes returns the operand and result type of an operand-only opcode.
func opTypes(op ir.Op) (operand, result *ir.Type) {
	operand, result = ir.I64Type, ir.I64Type
	switch {
	case op >= ir.OpFAdd && op <= ir.OpFDiv:
		operand, result = ir.F64Type, ir.F64Type
	case op >= ir.OpFEq && op <= ir.OpFGe:
		operand, result = ir.F64Type, ir.I1Type
	case op.IsCompare(), op == ir.OpTrunc:
		result = ir.I1Type
	case op == ir.OpSIToFP, op == ir.OpBitsF:
		result = ir.F64Type
	case op == ir.OpFPToSI, op == ir.OpFBits:
		operand = ir.F64Type
	case op == ir.OpZExt:
		operand = ir.I1Type
	case op == ir.OpP2I:
		operand = ir.PointerTo(ir.I64Type)
	case op == ir.OpI2P:
		result = ir.PointerTo(ir.I64Type)
	}
	return operand, result
}

func isUnary(op ir.Op) bool { return op >= ir.OpSIToFP }

// emitOp appends "a op b" (or "op a") at the builder's insertion point.
func emitOp(bld *ir.Builder, op ir.Op, a, b ir.Value) *ir.Instr {
	switch {
	case op.IsBinaryOp():
		return bld.CreateBinOp(op, a, b, "r")
	case op.IsCompare():
		return bld.CreateCmp(op, a, b, "r")
	case op == ir.OpI2P:
		return bld.CreateIntToPtr(a, ir.I64Type, "r")
	}
	return bld.CreateCast(op, a, "r")
}

// opForms holds every executable shape one opcode is checked in: the
// plain f(a,b) = a op b (the compiled tier's inline case), and the
// compiled tier's two superinstructions where the opcode can fuse.
type opForms struct {
	it                  *Interp
	plain, cmpBr        *ir.Function
	loadOpStore, revLOS *ir.Function
}

func buildForms(t *testing.T, op ir.Op) *opForms {
	t.Helper()
	operand, result := opTypes(op)
	params := []*ir.Type{operand, operand}
	if isUnary(op) {
		params = params[:1]
	}
	m := ir.NewModule("sem")
	cell := m.AddGlobal(&ir.Global{Nam: "cell", Elem: operand})
	bld := ir.NewBuilder()
	newFn := func(name string, ret *ir.Type) (*ir.Function, ir.Value, ir.Value) {
		f := m.AddFunction(ir.NewFunction(name, ir.FuncOf(ret, params...), "a", "b"))
		bld.SetInsertionBlock(f.NewBlock("entry"))
		if isUnary(op) {
			return f, f.Params[0], nil
		}
		return f, f.Params[0], f.Params[1]
	}

	fs := &opForms{}
	var a, b ir.Value
	fs.plain, a, b = newFn("plain", result)
	bld.CreateRet(emitOp(bld, op, a, b))

	if op.IsCompare() {
		fs.cmpBr, a, b = newFn("cmpbr", ir.I64Type)
		yes, no := fs.cmpBr.NewBlock("yes"), fs.cmpBr.NewBlock("no")
		bld.CreateCondBr(emitOp(bld, op, a, b), yes, no)
		bld.SetInsertionBlock(yes)
		bld.CreateRet(ir.ConstInt(1))
		bld.SetInsertionBlock(no)
		bld.CreateRet(ir.ConstInt(0))
	}
	if op.IsBinaryOp() && op != ir.OpDiv && op != ir.OpRem {
		// mem[cell] = mem[cell] op b, and the reversed a op mem[cell].
		for _, rev := range []bool{false, true} {
			name, f := "los", &fs.loadOpStore
			if rev {
				name, f = "losrev", &fs.revLOS
			}
			*f, a, b = newFn(name, result)
			seed, other := a, b
			if rev {
				seed, other = b, a
			}
			bld.CreateStore(seed, cell)
			x, y := ir.Value(bld.CreateLoad(cell, "v")), other
			if rev {
				x, y = y, x
			}
			bld.CreateStore(emitOp(bld, op, x, y), cell)
			bld.CreateRet(bld.CreateLoad(cell, "out"))
		}
	}
	if err := ir.Verify(m); err != nil {
		t.Fatalf("%s: test module malformed: %v", op, err)
	}

	fs.it = New(m)
	for _, form := range []struct {
		f    *ir.Function
		code copcode
	}{
		{fs.plain, simpleCop[op]}, {fs.cmpBr, cCmpBr}, {fs.loadOpStore, cLoadOpStore}, {fs.revLOS, cLoadOpStore},
	} {
		f, code := form.f, form.code
		if f == nil {
			continue
		}
		cf, err := compileFunc(fs.it.img, f, probes{})
		if err != nil {
			t.Fatalf("%s: @%s does not compile: %v", op, f.Nam, err)
		}
		if n := countOps(cf, code); n != 1 {
			t.Fatalf("%s: @%s compiled to %d ops of code %d, want 1 (the form under test is not being exercised)", op, f.Nam, n, code)
		}
	}
	return fs
}

// run calls one form on one engine and insists that engine really ran.
func (fs *opForms) run(t *testing.T, eng Engine, f *ir.Function, a, b uint64) (uint64, error) {
	t.Helper()
	fs.it.Eng = eng
	r, err := fs.it.Call(f, []uint64{a, b}[:len(f.Params)])
	if fs.it.engineUsed != eng {
		t.Fatalf("@%s ran on %s, want %s", f.Nam, fs.it.engineUsed, eng)
	}
	return r, err
}

// foldOp builds "ret (ca op cb)" over constant operands, runs ConstFold,
// and returns the constant the ret ends up with (nil when left unfolded).
func foldOp(op ir.Op, a, b uint64) *ir.Const {
	operand, result := opTypes(op)
	constOf := func(bits uint64) ir.Value {
		if operand.IsFloat() {
			return ir.ConstFloat(math.Float64frombits(bits))
		}
		return &ir.Const{Ty: operand, Int: int64(bits)}
	}
	f := ir.NewFunction("k", ir.FuncOf(result))
	bld := ir.NewBuilder()
	bld.SetInsertionBlock(f.NewBlock("entry"))
	ret := bld.CreateRet(emitOp(bld, op, constOf(a), constOf(b)))
	passes.ConstFold(f)
	c, _ := ret.Ops[0].(*ir.Const)
	return c
}

// TestOpcodeSemantics pins every consumer of instruction semantics to
// the one table, ir.Eval, per opcode over an edge-operand grid: the
// walker, the compiled tier's inline case, its fused forms (compare →
// condbr, load/op/store-back in both operand orders), and the constant
// folder must all produce Eval's bits, and integer div/rem by zero must
// be !ok, the same trap on both engines, and left unfolded. Editing any
// one copy to disagree — including a single inlined case in
// execCompiled — fails here.
func TestOpcodeSemantics(t *testing.T) {
	covered := 0
	for op := ir.OpInvalid; op <= ir.OpRet; op++ {
		if op < ir.OpAdd || op > ir.OpI2P {
			if _, ok := ir.Eval(op, 1, 1); ok {
				t.Errorf("ir.Eval accepts %s, which is not an operand-only opcode", op)
			}
			continue
		}
		covered++
		op := op
		t.Run(op.String(), func(t *testing.T) {
			fs := buildForms(t, op)
			operand, _ := opTypes(op)
			grids := [][]uint64{intGrid}
			switch {
			case operand.IsFloat():
				grids = [][]uint64{floatGrid}
			case op >= ir.OpFBits: // raw reinterpretations: any bits
				grids = [][]uint64{intGrid, floatGrid}
			}
			for _, grid := range grids {
				bs := grid
				if isUnary(op) {
					bs = []uint64{0}
				}
				for _, a := range grid {
					for _, b := range bs {
						checkOpcode(t, fs, op, a, b)
					}
				}
			}
		})
	}
	if covered != 34 {
		t.Errorf("covered %d operand-only opcodes, want 34 (14 binary, 12 compare, 8 conversion)", covered)
	}

	t.Run("chain", func(t *testing.T) {
		// a=12 b=10 c=30 d=7 e=2 f=8 g=4 h=7
		m, err := irtext.Parse(`module "m"
func @main() i64 {
entry:
  %a = add 7, 5
  %b = sub %a, 2
  %c = mul %b, 3
  %d = div %c, 4
  %e = rem %d, 5
  %f = shl %e, 2
  %g = shr %f, 1
  %h = xor %g, 3
  ret %h
}`)
		if err != nil {
			t.Fatal(err)
		}
		main := m.FunctionByName("main")
		for _, eng := range []Engine{EngineWalker, EngineCompiled} {
			it := New(m)
			it.Eng = eng
			if r, err := it.Call(main, nil); err != nil || r != 7 {
				t.Errorf("%s: result = %d, %v; want 7", eng, r, err)
			}
		}
		passes.ConstFold(main)
		ret := main.Entry().Terminator()
		if c, ok := ret.Ops[0].(*ir.Const); !ok || c.Int != 7 || len(main.Entry().Instrs) != 1 {
			t.Errorf("ConstFold left %d instrs returning %s, want a bare ret 7", len(main.Entry().Instrs), ret.Ops[0].Ident())
		}
	})
}

func checkOpcode(t *testing.T, fs *opForms, op ir.Op, a, b uint64) {
	t.Helper()
	operand, result := opTypes(op)
	want, ok := ir.Eval(op, a, b)
	if !ok {
		if (op != ir.OpDiv && op != ir.OpRem) || int64(b) != 0 {
			t.Fatalf("%s(%#x, %#x): ir.Eval !ok outside integer division by zero", op, a, b)
		}
		trap := errDivByZero
		if op == ir.OpRem {
			trap = errRemByZero
		}
		for _, eng := range []Engine{EngineWalker, EngineCompiled} {
			if _, err := fs.run(t, eng, fs.plain, a, b); err != trap {
				t.Errorf("%s(%#x, 0) on %s: err = %v, want %v", op, a, eng, err, trap)
			}
		}
		if c := foldOp(op, a, b); c != nil {
			t.Errorf("%s(%#x, 0): ConstFold folded a trapping instruction to %s", op, a, c.Ident())
		}
		return
	}
	if (op == ir.OpDiv || op == ir.OpRem) && int64(b) == 0 {
		t.Fatalf("%s(%#x, 0): ir.Eval ok on integer division by zero", op, a)
	}

	check := func(what string, eng Engine, f *ir.Function) {
		t.Helper()
		if f == nil {
			return
		}
		got, err := fs.run(t, eng, f, a, b)
		if err != nil || got != want {
			t.Errorf("%s(%#x, %#x) %s on %s = %#x, %v; ir.Eval says %#x", op, a, b, what, eng, got, err, want)
		}
	}
	for _, eng := range []Engine{EngineWalker, EngineCompiled} {
		check("plain", eng, fs.plain)
		check("compare+condbr", eng, fs.cmpBr)
		check("load/op/store", eng, fs.loadOpStore)
		check("load/op/store (reversed)", eng, fs.revLOS)
	}

	if operand.IsPtr() {
		return // no pointer constants to fold
	}
	switch c := foldOp(op, a, b); {
	case c == nil:
		if op < ir.OpFBits { // the folder leaves raw reinterpretations alone
			t.Errorf("%s(%#x, %#x): ConstFold left it unfolded", op, a, b)
		}
	case c.Bits() != want || !c.Ty.Equal(result):
		t.Errorf("%s(%#x, %#x): ConstFold = %s %#x; ir.Eval says %s %#x", op, a, b, c.Ty, c.Bits(), result, want)
	}
}

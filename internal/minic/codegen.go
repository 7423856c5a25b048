package minic

import (
	"fmt"

	"noelle/internal/ir"
)

// Compile parses and lowers a mini-C source file into an IR module. The
// produced module uses allocas for every local (clang -O0 style); callers
// run passes.Mem2Reg to obtain pruned SSA.
func Compile(moduleName, src string) (*ir.Module, error) {
	prog, err := Parse(src)
	if err != nil {
		return nil, err
	}
	return Lower(moduleName, prog)
}

// Lower generates IR from a parsed program.
func Lower(moduleName string, prog *Program) (*ir.Module, error) {
	g := &codegen{
		mod:   ir.NewModule(moduleName),
		funcs: map[string]*funcInfo{},
		glbls: map[string]*globalInfo{},
	}
	if err := g.run(prog); err != nil {
		return nil, err
	}
	if err := ir.Verify(g.mod); err != nil {
		return nil, fmt.Errorf("minic: generated IR is malformed: %w", err)
	}
	return g.mod, nil
}

type funcInfo struct {
	fn    *ir.Function
	ctype *CType // CFunc
}

type globalInfo struct {
	g     *ir.Global
	ctype *CType
}

type localInfo struct {
	addr  ir.Value // alloca (or global pointer) holding the variable
	ctype *CType
}

type codegen struct {
	mod   *ir.Module
	funcs map[string]*funcInfo
	glbls map[string]*globalInfo

	// Per-function state.
	fn     *ir.Function
	bld    *ir.Builder
	scopes []map[string]localInfo
	breaks []*ir.Block
	conts  []*ir.Block
	retC   *CType
}

func irType(t *CType) *ir.Type {
	switch t.Kind {
	case CInt:
		return ir.I64Type
	case CFloat:
		return ir.F64Type
	case CVoid:
		return ir.VoidType
	case CPtr:
		return ir.PointerTo(irType(t.Elem))
	case CArray:
		return ir.ArrayOf(irType(t.Elem), t.Len)
	case CFunc:
		params := make([]*ir.Type, len(t.Params))
		for i, p := range t.Params {
			params[i] = irType(p)
		}
		return ir.FuncOf(irType(t.Ret), params...)
	}
	panic("minic: unhandled type")
}

func (g *codegen) run(prog *Program) error {
	// Pre-declare the standard print externs so every benchmark can use
	// them without boilerplate.
	builtin := []*FuncDecl{
		{Name: "print_i64", Params: []ParamDecl{{Name: "v", Type: TInt}}, Ret: TVoid},
		{Name: "print_f64", Params: []ParamDecl{{Name: "v", Type: TFloat}}, Ret: TVoid},
	}
	for _, fd := range append(builtin, prog.Externs...) {
		if _, dup := g.funcs[fd.Name]; dup {
			continue
		}
		g.declareFunc(fd)
	}
	for _, gd := range prog.Globals {
		if _, dup := g.glbls[gd.Name]; dup {
			return fmt.Errorf("line %d: duplicate global %q", gd.Line, gd.Name)
		}
		irg := &ir.Global{Nam: gd.Name, Elem: irType(gd.Type), Init: gd.Init, FInit: gd.FInit}
		g.mod.AddGlobal(irg)
		g.glbls[gd.Name] = &globalInfo{g: irg, ctype: gd.Type}
	}
	// Declare all functions first so forward references and function
	// pointers work. No body is generated yet, so a definition is told
	// from a declaration by name; one that completes a declaration must
	// have its type, or the body would be built against other parameters.
	defined := map[string]bool{}
	for _, fd := range prog.Funcs {
		if defined[fd.Name] {
			return fmt.Errorf("line %d: duplicate function %q", fd.Line, fd.Name)
		}
		defined[fd.Name] = true
		fi, declared := g.funcs[fd.Name]
		if !declared {
			g.declareFunc(fd)
		} else if ct := funcType(fd); !fi.ctype.equal(ct) {
			return fmt.Errorf("line %d: function %q defined as %s, declared as %s", fd.Line, fd.Name, ct, fi.ctype)
		}
	}
	for _, fd := range prog.Funcs {
		if err := g.genFunc(fd); err != nil {
			return err
		}
	}
	return nil
}

// funcType is fd's function type.
func funcType(fd *FuncDecl) *CType {
	ct := &CType{Kind: CFunc, Ret: fd.Ret}
	for _, p := range fd.Params {
		ct.Params = append(ct.Params, p.Type)
	}
	return ct
}

func (g *codegen) declareFunc(fd *FuncDecl) {
	ct := funcType(fd)
	var names []string
	for _, p := range fd.Params {
		names = append(names, p.Name)
	}
	fn := ir.NewFunction(fd.Name, irType(ct), names...)
	g.mod.AddFunction(fn)
	g.funcs[fd.Name] = &funcInfo{fn: fn, ctype: ct}
}

func (g *codegen) pushScope() { g.scopes = append(g.scopes, map[string]localInfo{}) }
func (g *codegen) popScope()  { g.scopes = g.scopes[:len(g.scopes)-1] }

func (g *codegen) lookup(name string) (localInfo, bool) {
	for i := len(g.scopes) - 1; i >= 0; i-- {
		if li, ok := g.scopes[i][name]; ok {
			return li, true
		}
	}
	return localInfo{}, false
}

func (g *codegen) define(name string, li localInfo) { g.scopes[len(g.scopes)-1][name] = li }

func (g *codegen) genFunc(fd *FuncDecl) error {
	fi := g.funcs[fd.Name]
	g.fn = fi.fn
	g.bld = ir.NewBuilder()
	g.scopes = nil
	g.breaks = nil
	g.conts = nil
	g.retC = fd.Ret

	entry := g.fn.NewBlock("entry")
	g.bld.SetInsertionBlock(entry)
	g.pushScope()
	// Spill parameters to allocas so they are addressable and mutable.
	for i, p := range fd.Params {
		a := g.bld.CreateAlloca(irType(p.Type), 1, p.Name+".addr")
		g.bld.CreateStore(g.fn.Params[i], a)
		g.define(p.Name, localInfo{addr: a, ctype: p.Type})
	}
	if err := g.genBlock(fd.Body); err != nil {
		return err
	}
	g.popScope()
	// Seal every unterminated block with a default return.
	for _, b := range g.fn.Blocks {
		if b.Terminator() == nil {
			g.bld.SetInsertionBlock(b)
			switch fd.Ret.Kind {
			case CVoid:
				g.bld.CreateRet(nil)
			case CFloat:
				g.bld.CreateRet(ir.ConstFloat(0))
			case CInt:
				g.bld.CreateRet(ir.ConstInt(0))
			default:
				return fmt.Errorf("function %q: falls off end with non-scalar return type", fd.Name)
			}
		}
	}
	return nil
}

func (g *codegen) genBlock(blk *BlockStmt) error {
	g.pushScope()
	defer g.popScope()
	for _, s := range blk.Stmts {
		if err := g.genStmt(s); err != nil {
			return err
		}
	}
	return nil
}

func (g *codegen) genStmt(s Stmt) error {
	switch st := s.(type) {
	case *BlockStmt:
		return g.genBlock(st)

	case *DeclStmt:
		n := 1
		elem := st.Type
		if st.Type.Kind == CArray {
			n = st.Type.Len
			elem = st.Type.Elem
		}
		a := g.bld.CreateAlloca(irType(elem), n, st.Name)
		g.define(st.Name, localInfo{addr: a, ctype: st.Type})
		if st.Init != nil {
			v, vt, err := g.genExpr(st.Init)
			if err != nil {
				return err
			}
			if !vt.equal(st.Type) {
				return fmt.Errorf("line %d: initializing %s with %s", st.Line, st.Type, vt)
			}
			g.bld.CreateStore(v, a)
		}
		return nil

	case *AssignStmt:
		addr, lt, err := g.genAddr(st.LHS)
		if err != nil {
			return err
		}
		v, vt, err := g.genExpr(st.RHS)
		if err != nil {
			return err
		}
		if !vt.equal(lt) {
			return fmt.Errorf("line %d: assigning %s to %s", st.Line, vt, lt)
		}
		g.bld.CreateStore(v, addr)
		return nil

	case *ExprStmt:
		_, _, err := g.genExprAllowVoid(st.X)
		return err

	case *ReturnStmt:
		if st.X == nil {
			if g.retC.Kind != CVoid {
				return fmt.Errorf("line %d: missing return value", st.Line)
			}
			g.bld.CreateRet(nil)
		} else {
			v, vt, err := g.genExpr(st.X)
			if err != nil {
				return err
			}
			if !vt.equal(g.retC) {
				return fmt.Errorf("line %d: returning %s from %s function", st.Line, vt, g.retC)
			}
			g.bld.CreateRet(v)
		}
		g.startDeadBlock("post.ret")
		return nil

	case *BreakStmt:
		if len(g.breaks) == 0 {
			return fmt.Errorf("line %d: break outside loop", st.Line)
		}
		g.bld.CreateBr(g.breaks[len(g.breaks)-1])
		g.startDeadBlock("post.break")
		return nil

	case *ContinueStmt:
		if len(g.conts) == 0 {
			return fmt.Errorf("line %d: continue outside loop", st.Line)
		}
		g.bld.CreateBr(g.conts[len(g.conts)-1])
		g.startDeadBlock("post.continue")
		return nil

	case *IfStmt:
		cond, err := g.genCond(st.Cond)
		if err != nil {
			return err
		}
		thenB := g.fn.NewBlock("if.then")
		exitB := g.fn.NewBlock("if.end")
		elseB := exitB
		if st.Else != nil {
			elseB = g.fn.NewBlock("if.else")
		}
		g.bld.CreateCondBr(cond, thenB, elseB)
		g.bld.SetInsertionBlock(thenB)
		if err := g.genBlock(st.Then); err != nil {
			return err
		}
		if g.bld.Block().Terminator() == nil {
			g.bld.CreateBr(exitB)
		}
		if st.Else != nil {
			g.bld.SetInsertionBlock(elseB)
			if err := g.genBlock(st.Else); err != nil {
				return err
			}
			if g.bld.Block().Terminator() == nil {
				g.bld.CreateBr(exitB)
			}
		}
		g.bld.SetInsertionBlock(exitB)
		return nil

	case *WhileStmt:
		if st.DoWhile {
			return g.genDoWhile(st)
		}
		header := g.fn.NewBlock("while.header")
		body := g.fn.NewBlock("while.body")
		exit := g.fn.NewBlock("while.end")
		g.bld.CreateBr(header)
		g.bld.SetInsertionBlock(header)
		cond, err := g.genCond(st.Cond)
		if err != nil {
			return err
		}
		g.bld.CreateCondBr(cond, body, exit)
		g.bld.SetInsertionBlock(body)
		g.breaks = append(g.breaks, exit)
		g.conts = append(g.conts, header)
		if err := g.genBlock(st.Body); err != nil {
			return err
		}
		g.breaks = g.breaks[:len(g.breaks)-1]
		g.conts = g.conts[:len(g.conts)-1]
		if g.bld.Block().Terminator() == nil {
			g.bld.CreateBr(header)
		}
		g.bld.SetInsertionBlock(exit)
		return nil

	case *ForStmt:
		if st.Init != nil {
			g.pushScope()
			defer g.popScope()
			if err := g.genStmt(st.Init); err != nil {
				return err
			}
		}
		header := g.fn.NewBlock("for.header")
		body := g.fn.NewBlock("for.body")
		postB := g.fn.NewBlock("for.post")
		exit := g.fn.NewBlock("for.end")
		g.bld.CreateBr(header)
		g.bld.SetInsertionBlock(header)
		if st.Cond != nil {
			cond, err := g.genCond(st.Cond)
			if err != nil {
				return err
			}
			g.bld.CreateCondBr(cond, body, exit)
		} else {
			g.bld.CreateBr(body)
		}
		g.bld.SetInsertionBlock(body)
		g.breaks = append(g.breaks, exit)
		g.conts = append(g.conts, postB)
		if err := g.genBlock(st.Body); err != nil {
			return err
		}
		g.breaks = g.breaks[:len(g.breaks)-1]
		g.conts = g.conts[:len(g.conts)-1]
		if g.bld.Block().Terminator() == nil {
			g.bld.CreateBr(postB)
		}
		g.bld.SetInsertionBlock(postB)
		if st.Post != nil {
			if err := g.genStmt(st.Post); err != nil {
				return err
			}
		}
		g.bld.CreateBr(header)
		g.bld.SetInsertionBlock(exit)
		return nil
	}
	return fmt.Errorf("minic: unhandled statement %T", s)
}

func (g *codegen) genDoWhile(st *WhileStmt) error {
	body := g.fn.NewBlock("do.body")
	condB := g.fn.NewBlock("do.cond")
	exit := g.fn.NewBlock("do.end")
	g.bld.CreateBr(body)
	g.bld.SetInsertionBlock(body)
	g.breaks = append(g.breaks, exit)
	g.conts = append(g.conts, condB)
	if err := g.genBlock(st.Body); err != nil {
		return err
	}
	g.breaks = g.breaks[:len(g.breaks)-1]
	g.conts = g.conts[:len(g.conts)-1]
	if g.bld.Block().Terminator() == nil {
		g.bld.CreateBr(condB)
	}
	g.bld.SetInsertionBlock(condB)
	cond, err := g.genCond(st.Cond)
	if err != nil {
		return err
	}
	g.bld.CreateCondBr(cond, body, exit)
	g.bld.SetInsertionBlock(exit)
	return nil
}

// startDeadBlock begins a fresh block for statements following a
// terminator (code after return/break/continue); it is unreachable and
// cleaned up by CFG simplification.
func (g *codegen) startDeadBlock(label string) {
	b := g.fn.NewBlock(label)
	g.bld.SetInsertionBlock(b)
}

// genCond evaluates an expression as a branch condition (i1). Ints are
// compared against zero, C style.
func (g *codegen) genCond(e Expr) (ir.Value, error) {
	v, vt, err := g.genExpr(e)
	if err != nil {
		return nil, err
	}
	switch vt.Kind {
	case CInt:
		return g.bld.CreateCmp(ir.OpNe, v, ir.ConstInt(0), "tobool"), nil
	case CFloat:
		return g.bld.CreateCmp(ir.OpFNe, v, ir.ConstFloat(0), "tobool"), nil
	case CPtr:
		return nil, fmt.Errorf("pointer conditions are not supported")
	}
	return nil, fmt.Errorf("condition has type %s", vt)
}

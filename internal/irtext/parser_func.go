package irtext

import (
	"fmt"
	"math"
	"strconv"

	"noelle/internal/ir"
)

// fixup records a use of a local value that was not yet defined when the
// instruction was parsed (e.g. a phi over a back edge).
type fixup struct {
	in   *ir.Instr
	idx  int
	name string
	line int
}

type funcParser struct {
	p      *parser
	fn     *ir.Function
	locals map[string]ir.Value
	blocks map[string]*ir.Block
	order  []*ir.Block // blocks by first mention
	defed  map[string]bool
	fixups []fixup
}

func (p *parser) parseFunc() error {
	line := p.peek().line
	p.next() // "func"
	name, sig, paramNames, err := p.parseFuncSignature()
	if err != nil {
		return err
	}
	md, err := p.parseMD()
	if err != nil {
		return err
	}
	if err := p.expectPunct("{"); err != nil {
		return err
	}

	// The pre-scan registered a shell; fill it in.
	fn := p.funcs[name]
	switch {
	case fn == nil:
		fn = ir.NewFunction(name, sig, paramNames...)
		p.addFunction(fn)
	case !fn.IsDeclaration():
		return fmt.Errorf("line %d: duplicate definition of @%s", line, name)
	case !fn.Sig.Equal(sig):
		return fmt.Errorf("line %d: @%s signature mismatch with earlier declaration", line, name)
	}
	fn.MD = md

	fp := &funcParser{
		p:      p,
		fn:     fn,
		locals: map[string]ir.Value{},
		blocks: map[string]*ir.Block{},
		defed:  map[string]bool{},
	}
	for _, prm := range fn.Params {
		fp.locals[prm.Nam] = prm
	}
	return fp.parseBody()
}

func (fp *funcParser) block(name string, line int) *ir.Block {
	if b, ok := fp.blocks[name]; ok {
		return b
	}
	b := &ir.Block{Nam: name, Parent: fp.fn, ID: -1}
	fp.blocks[name] = b
	fp.order = append(fp.order, b)
	return b
}

func (fp *funcParser) parseBody() error {
	p := fp.p
	var cur *ir.Block
	for {
		t := p.peek()
		if t.kind == tokPunct && t.text == "}" {
			p.next()
			break
		}
		// Block label: ident followed by ':'.
		if t.kind == tokIdent && p.lex.ahead.kind == tokPunct && p.lex.ahead.text == ":" {
			p.next()
			p.next()
			if fp.defed[t.text] {
				return fmt.Errorf("line %d: duplicate block label %q", t.line, t.text)
			}
			b := fp.block(t.text, t.line)
			fp.defed[t.text] = true
			fp.fn.Blocks = append(fp.fn.Blocks, b)
			md, err := p.parseMD()
			if err != nil {
				return err
			}
			b.MD = md
			cur = b
			continue
		}
		if cur == nil {
			return fmt.Errorf("line %d: instruction before first block label", t.line)
		}
		in, err := fp.parseInstr()
		if err != nil {
			return err
		}
		cur.Append(in)
		if in.HasResult() || in.Nam != "" {
			if _, dup := fp.locals[in.Nam]; dup {
				return fmt.Errorf("line %d: redefinition of %%%s", t.line, in.Nam)
			}
			fp.locals[in.Nam] = in
		}
	}

	// Resolve deferred local references.
	for _, fx := range fp.fixups {
		v, ok := fp.locals[fx.name]
		if !ok {
			return fmt.Errorf("line %d: undefined value %%%s", fx.line, fx.name)
		}
		fx.in.Ops[fx.idx] = v
	}
	// All referenced blocks must have been defined; the first one
	// mentioned that was not is the one reported.
	for _, b := range fp.order {
		if !fp.defed[b.Nam] {
			return fmt.Errorf("func @%s: branch to undefined block %q", fp.fn.Nam, b.Nam)
		}
	}
	return fp.typeForwardResults()
}

// typeForwardResults computes the result types of ptradd and select,
// which come from an operand that may be defined further down. Each waits
// for the ptradd or select it reads, so a chain types in any order; a
// cycle of them has no type and is an error.
func (fp *funcParser) typeForwardResults() error {
	var todo []*ir.Instr
	fp.fn.Instrs(func(in *ir.Instr) bool {
		if in.Opcode == ir.OpPtrAdd || in.Opcode == ir.OpSelect {
			todo = append(todo, in)
		}
		return true
	})
	for len(todo) > 0 {
		rest := todo[:0]
		for _, in := range todo {
			src := in.Ops[0]
			if in.Opcode == ir.OpSelect {
				src = in.Ops[1]
			}
			t := src.Type()
			switch {
			case t == nil:
				rest = append(rest, in)
			case in.Opcode == ir.OpPtrAdd && t.IsPtr() && t.Elem.Kind == ir.ArrayKind:
				in.Ty = ir.PointerTo(t.Elem.Elem)
			default:
				in.Ty = t
			}
		}
		if len(rest) == len(todo) {
			return fmt.Errorf("func @%s: %%%s has no type: its operand types form a cycle", fp.fn.Nam, rest[0].Nam)
		}
		todo = rest
	}
	return nil
}

// operand parses one operand. When the operand is a not-yet-defined local,
// a nil is stored and a fixup is recorded against in/idx.
func (fp *funcParser) operand(in *ir.Instr, idx int) (ir.Value, error) {
	p := fp.p
	t := p.next()
	switch t.kind {
	case tokLocal:
		if v, ok := fp.locals[t.text]; ok {
			return v, nil
		}
		fp.fixups = append(fp.fixups, fixup{in: in, idx: idx, name: t.text, line: t.line})
		return nil, nil
	case tokGlobal:
		if f := p.funcs[t.text]; f != nil {
			return f, nil
		}
		if g := p.globals[t.text]; g != nil {
			return g, nil
		}
		return nil, fmt.Errorf("line %d: unknown global @%s", t.line, t.text)
	case tokInt:
		v, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return nil, err
		}
		return ir.ConstInt(v), nil
	case tokFloat:
		v, err := strconv.ParseFloat(t.text, 64)
		if err != nil {
			return nil, err
		}
		return ir.ConstFloat(v), nil
	case tokIdent:
		switch t.text {
		case "true":
			return ir.ConstBool(true), nil
		case "false":
			return ir.ConstBool(false), nil
		case "NaN":
			return ir.ConstFloat(math.NaN()), nil
		}
	}
	return nil, fmt.Errorf("line %d: expected operand, got %q", t.line, t.text)
}

// addOperand parses an operand into position idx of in (growing in.Ops).
func (fp *funcParser) addOperand(in *ir.Instr) error {
	idx := len(in.Ops)
	in.Ops = append(in.Ops, nil)
	v, err := fp.operand(in, idx)
	if err != nil {
		return err
	}
	in.Ops[idx] = v
	return nil
}

func (fp *funcParser) parseInstr() (*ir.Instr, error) {
	p := fp.p
	in := &ir.Instr{ID: -1, Ty: ir.VoidType}

	if p.peek().kind == tokLocal {
		name := p.next().text
		if err := p.expectPunct("="); err != nil {
			return nil, err
		}
		in.Nam = name
	}
	opTok := p.next()
	if opTok.kind != tokIdent {
		return nil, fmt.Errorf("line %d: expected opcode, got %q", opTok.line, opTok.text)
	}
	op := ir.OpFromName(opTok.text)
	if op == ir.OpInvalid {
		return nil, fmt.Errorf("line %d: unknown opcode %q", opTok.line, opTok.text)
	}
	in.Opcode = op

	var err error
	switch {
	case op == ir.OpAlloca:
		in.AllocaElem, err = p.parseType()
		if err != nil {
			return nil, err
		}
		if err = p.expectPunct(","); err != nil {
			return nil, err
		}
		cnt := p.next()
		if cnt.kind != tokInt {
			return nil, fmt.Errorf("line %d: expected alloca count", cnt.line)
		}
		in.AllocaCount, err = strconv.Atoi(cnt.text)
		if err != nil {
			return nil, err
		}
		in.Ty = ir.PointerTo(in.AllocaElem)

	case op == ir.OpLoad:
		in.Ty, err = p.parseType()
		if err != nil {
			return nil, err
		}
		if err = p.expectPunct(","); err != nil {
			return nil, err
		}
		if err = fp.addOperand(in); err != nil {
			return nil, err
		}

	case op == ir.OpStore:
		if _, err = p.parseType(); err != nil { // value type, informative
			return nil, err
		}
		if err = fp.addOperand(in); err != nil {
			return nil, err
		}
		if err = p.expectPunct(","); err != nil {
			return nil, err
		}
		if err = fp.addOperand(in); err != nil {
			return nil, err
		}

	case op == ir.OpPtrAdd:
		if err = fp.addOperand(in); err != nil {
			return nil, err
		}
		if err = p.expectPunct(","); err != nil {
			return nil, err
		}
		if err = fp.addOperand(in); err != nil {
			return nil, err
		}
		in.Ty = nil // recomputed after fixups

	case op == ir.OpPhi:
		in.Ty, err = p.parseType()
		if err != nil {
			return nil, err
		}
		first := true
		for first || p.acceptPunct(",") {
			first = false
			if err = p.expectPunct("["); err != nil {
				return nil, err
			}
			if err = fp.addOperand(in); err != nil {
				return nil, err
			}
			if err = p.expectPunct(","); err != nil {
				return nil, err
			}
			lbl := p.next()
			if lbl.kind != tokIdent {
				return nil, fmt.Errorf("line %d: expected phi block label", lbl.line)
			}
			in.Blocks = append(in.Blocks, fp.block(lbl.text, lbl.line))
			if err = p.expectPunct("]"); err != nil {
				return nil, err
			}
		}

	case op == ir.OpCall:
		in.Ty, err = p.parseType()
		if err != nil {
			return nil, err
		}
		if err = fp.addOperand(in); err != nil { // callee
			return nil, err
		}
		if err = p.expectPunct("("); err != nil {
			return nil, err
		}
		for !p.acceptPunct(")") {
			if len(in.Ops) > 1 {
				if err = p.expectPunct(","); err != nil {
					return nil, err
				}
			}
			if err = fp.addOperand(in); err != nil {
				return nil, err
			}
		}
		if in.Ty.Kind == ir.VoidKind {
			in.Nam = ""
		}

	case op == ir.OpBr:
		lbl := p.next()
		if lbl.kind != tokIdent {
			return nil, fmt.Errorf("line %d: expected branch target", lbl.line)
		}
		in.Blocks = []*ir.Block{fp.block(lbl.text, lbl.line)}

	case op == ir.OpCondBr:
		if err = fp.addOperand(in); err != nil {
			return nil, err
		}
		for i := 0; i < 2; i++ {
			if err = p.expectPunct(","); err != nil {
				return nil, err
			}
			lbl := p.next()
			if lbl.kind != tokIdent {
				return nil, fmt.Errorf("line %d: expected branch target", lbl.line)
			}
			in.Blocks = append(in.Blocks, fp.block(lbl.text, lbl.line))
		}

	case op == ir.OpRet:
		if p.peek().kind == tokIdent && p.peek().text == "void" {
			p.next()
		} else if err = fp.addOperand(in); err != nil {
			return nil, err
		}

	case op == ir.OpSelect:
		for i := 0; i < 3; i++ {
			if i > 0 {
				if err = p.expectPunct(","); err != nil {
					return nil, err
				}
			}
			if err = fp.addOperand(in); err != nil {
				return nil, err
			}
		}
		in.Ty = nil // recomputed after fixups

	case op.IsBinaryOp() || op.IsCompare():
		for i := 0; i < 2; i++ {
			if i > 0 {
				if err = p.expectPunct(","); err != nil {
					return nil, err
				}
			}
			if err = fp.addOperand(in); err != nil {
				return nil, err
			}
		}
		switch {
		case op.IsCompare():
			in.Ty = ir.I1Type
		case op >= ir.OpFAdd && op <= ir.OpFDiv:
			in.Ty = ir.F64Type
		default:
			in.Ty = ir.I64Type
		}

	case op == ir.OpSIToFP:
		if err = fp.addOperand(in); err != nil {
			return nil, err
		}
		in.Ty = ir.F64Type
	case op == ir.OpFPToSI:
		if err = fp.addOperand(in); err != nil {
			return nil, err
		}
		in.Ty = ir.I64Type
	case op == ir.OpZExt:
		if err = fp.addOperand(in); err != nil {
			return nil, err
		}
		in.Ty = ir.I64Type
	case op == ir.OpTrunc:
		if err = fp.addOperand(in); err != nil {
			return nil, err
		}
		in.Ty = ir.I1Type
	case op == ir.OpFBits:
		if err = fp.addOperand(in); err != nil {
			return nil, err
		}
		in.Ty = ir.I64Type
	case op == ir.OpBitsF:
		if err = fp.addOperand(in); err != nil {
			return nil, err
		}
		in.Ty = ir.F64Type
	case op == ir.OpP2I:
		if err = fp.addOperand(in); err != nil {
			return nil, err
		}
		in.Ty = ir.I64Type
	case op == ir.OpI2P:
		in.Ty, err = p.parseType()
		if err != nil {
			return nil, err
		}
		if err = p.expectPunct(","); err != nil {
			return nil, err
		}
		if err = fp.addOperand(in); err != nil {
			return nil, err
		}

	default:
		return nil, fmt.Errorf("line %d: cannot parse opcode %q", opTok.line, opTok.text)
	}

	md, err := p.parseMD()
	if err != nil {
		return nil, err
	}
	in.MD = md
	return in, nil
}

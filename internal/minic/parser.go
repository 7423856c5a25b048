package minic

import (
	"fmt"
	"math"
	"strconv"

	"noelle/internal/ir"
)

// Parse parses a mini-C translation unit.
func Parse(src string) (*Program, error) {
	toks, err := Lex(src)
	if err != nil {
		return nil, err
	}
	p := &cparser{toks: toks}
	return p.parseProgram()
}

type cparser struct {
	toks []Tok
	pos  int
}

func (p *cparser) peek() Tok        { return p.toks[p.pos] }
func (p *cparser) peekAt(n int) Tok { return p.toks[min(p.pos+n, len(p.toks)-1)] }
func (p *cparser) next() Tok        { t := p.toks[p.pos]; p.pos++; return t }

func (p *cparser) errf(format string, args ...any) error {
	return fmt.Errorf("line %d: %s", p.peek().Line, fmt.Sprintf(format, args...))
}

func (p *cparser) expect(text string) error {
	t := p.next()
	if t.Text != text {
		return fmt.Errorf("line %d: expected %q, got %q", t.Line, text, t.Text)
	}
	return nil
}

func (p *cparser) accept(text string) bool {
	if p.peek().Text == text && p.peek().Kind != TokEOF {
		p.pos++
		return true
	}
	return false
}

func (p *cparser) atType() bool {
	t := p.peek()
	return t.Kind == TokKeyword && (t.Text == "int" || t.Text == "float" || t.Text == "void" || t.Text == "func")
}

// parseType parses: ("int"|"float"|"void"|funcType) "*"*
func (p *cparser) parseType() (*CType, error) {
	t := p.next()
	var base *CType
	switch t.Text {
	case "int":
		base = TInt
	case "float":
		base = TFloat
	case "void":
		base = TVoid
	case "func":
		if err := p.expect("("); err != nil {
			return nil, err
		}
		ft := &CType{Kind: CFunc}
		for !p.accept(")") {
			if len(ft.Params) > 0 {
				if err := p.expect(","); err != nil {
					return nil, err
				}
			}
			pt, err := p.parseType()
			if err != nil {
				return nil, err
			}
			ft.Params = append(ft.Params, pt)
		}
		ret, err := p.parseType()
		if err != nil {
			return nil, err
		}
		ft.Ret = ret
		base = ft
	default:
		return nil, fmt.Errorf("line %d: expected type, got %q", t.Line, t.Text)
	}
	for p.accept("*") {
		base = cPtr(base)
	}
	return base, nil
}

func (p *cparser) parseProgram() (*Program, error) {
	prog := &Program{}
	for p.peek().Kind != TokEOF {
		if p.accept("extern") {
			fd, err := p.parseFuncHeader()
			if err != nil {
				return nil, err
			}
			if err := p.expect(";"); err != nil {
				return nil, err
			}
			prog.Externs = append(prog.Externs, fd)
			continue
		}
		if !p.atType() {
			return nil, p.errf("expected declaration, got %q", p.peek().Text)
		}
		// Function or global: type ident then '(' means function.
		save := p.pos
		ty, err := p.parseType()
		if err != nil {
			return nil, err
		}
		nameTok := p.next()
		if nameTok.Kind != TokIdent {
			return nil, fmt.Errorf("line %d: expected name, got %q", nameTok.Line, nameTok.Text)
		}
		if p.peek().Text == "(" {
			p.pos = save
			fd, err := p.parseFuncHeader()
			if err != nil {
				return nil, err
			}
			body, err := p.parseBlock()
			if err != nil {
				return nil, err
			}
			fd.Body = body
			prog.Funcs = append(prog.Funcs, fd)
			continue
		}
		g, err := p.parseGlobalRest(ty, nameTok)
		if err != nil {
			return nil, err
		}
		prog.Globals = append(prog.Globals, g)
	}
	return prog, nil
}

func (p *cparser) parseFuncHeader() (*FuncDecl, error) {
	ret, err := p.parseType()
	if err != nil {
		return nil, err
	}
	nameTok := p.next()
	if nameTok.Kind != TokIdent {
		return nil, fmt.Errorf("line %d: expected function name", nameTok.Line)
	}
	if err := p.expect("("); err != nil {
		return nil, err
	}
	fd := &FuncDecl{Name: nameTok.Text, Ret: ret, Line: nameTok.Line}
	for !p.accept(")") {
		if len(fd.Params) > 0 {
			if err := p.expect(","); err != nil {
				return nil, err
			}
		}
		pt, err := p.parseType()
		if err != nil {
			return nil, err
		}
		pn := p.next()
		if pn.Kind != TokIdent {
			return nil, fmt.Errorf("line %d: expected parameter name", pn.Line)
		}
		fd.Params = append(fd.Params, ParamDecl{Name: pn.Text, Type: pt})
	}
	return fd, nil
}

// arraySuffix parses the optional "[N]" after the declared name: ty when
// there is none, else an array of N ty, N a positive integer and the
// array's byte size one that int64 holds.
func (p *cparser) arraySuffix(ty *CType, name Tok) (*CType, error) {
	if !p.accept("[") {
		return ty, nil
	}
	szTok := p.next()
	n, err := strconv.Atoi(szTok.Text)
	if szTok.Kind != TokInt || err != nil || n < 1 {
		return nil, fmt.Errorf("line %d: expected array size, got %q", szTok.Line, szTok.Text)
	}
	if err := p.expect("]"); err != nil {
		return nil, err
	}
	arr := cArray(ty, n)
	if !ir.Fits(irType(arr), math.MaxInt64) {
		return nil, fmt.Errorf("line %d: array %s of %d x %s: byte size out of range", name.Line, name.Text, n, irType(ty))
	}
	return arr, nil
}

func (p *cparser) parseGlobalRest(ty *CType, nameTok Tok) (*GlobalDecl, error) {
	ty, err := p.arraySuffix(ty, nameTok)
	if err != nil {
		return nil, err
	}
	g := &GlobalDecl{Name: nameTok.Text, Type: ty, Line: nameTok.Line}
	if p.accept("=") {
		isFloat := scalarOf(g.Type).Kind == CFloat
		parseLit := func() error {
			neg := p.accept("-")
			t := p.next()
			switch {
			case isFloat && (t.Kind == TokFloat || t.Kind == TokInt):
				v, err := strconv.ParseFloat(t.Text, 64)
				if err != nil {
					return err
				}
				if neg {
					v = -v
				}
				g.FInit = append(g.FInit, v)
			case !isFloat && t.Kind == TokInt:
				v, err := strconv.ParseInt(t.Text, 10, 64)
				if err != nil {
					return err
				}
				if neg {
					v = -v
				}
				g.Init = append(g.Init, v)
			default:
				return fmt.Errorf("line %d: bad initializer %q", t.Line, t.Text)
			}
			return nil
		}
		if p.accept("{") {
			for !p.accept("}") {
				if len(g.Init)+len(g.FInit) > 0 {
					if err := p.expect(","); err != nil {
						return nil, err
					}
				}
				if err := parseLit(); err != nil {
					return nil, err
				}
			}
		} else if err := parseLit(); err != nil {
			return nil, err
		}
	}
	if err := p.expect(";"); err != nil {
		return nil, err
	}
	return g, nil
}

func scalarOf(t *CType) *CType {
	for t.Kind == CArray || t.Kind == CPtr {
		t = t.Elem
	}
	return t
}

func (p *cparser) parseBlock() (*BlockStmt, error) {
	if err := p.expect("{"); err != nil {
		return nil, err
	}
	blk := &BlockStmt{}
	for !p.accept("}") {
		if p.peek().Kind == TokEOF {
			return nil, p.errf("unexpected end of input in block")
		}
		s, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		blk.Stmts = append(blk.Stmts, s)
	}
	return blk, nil
}

func (p *cparser) parseStmt() (Stmt, error) {
	t := p.peek()
	switch {
	case t.Text == "{":
		return p.parseBlock()
	case t.Text == "if":
		return p.parseIf()
	case t.Text == "while":
		return p.parseWhile()
	case t.Text == "do":
		return p.parseDoWhile()
	case t.Text == "for":
		return p.parseFor()
	case t.Text == "return":
		p.next()
		rs := &ReturnStmt{Line: t.Line}
		if !p.accept(";") {
			x, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			rs.X = x
			if err := p.expect(";"); err != nil {
				return nil, err
			}
		}
		return rs, nil
	case t.Text == "break":
		p.next()
		if err := p.expect(";"); err != nil {
			return nil, err
		}
		return &BreakStmt{Line: t.Line}, nil
	case t.Text == "continue":
		p.next()
		if err := p.expect(";"); err != nil {
			return nil, err
		}
		return &ContinueStmt{Line: t.Line}, nil
	case p.atType():
		d, err := p.parseDecl()
		if err != nil {
			return nil, err
		}
		if err := p.expect(";"); err != nil {
			return nil, err
		}
		return d, nil
	default:
		s, err := p.parseExprOrAssign()
		if err != nil {
			return nil, err
		}
		if err := p.expect(";"); err != nil {
			return nil, err
		}
		return s, nil
	}
}

func (p *cparser) parseDecl() (Stmt, error) {
	line := p.peek().Line
	ty, err := p.parseType()
	if err != nil {
		return nil, err
	}
	nameTok := p.next()
	if nameTok.Kind != TokIdent {
		return nil, fmt.Errorf("line %d: expected variable name", nameTok.Line)
	}
	ty, err = p.arraySuffix(ty, nameTok)
	if err != nil {
		return nil, err
	}
	d := &DeclStmt{Name: nameTok.Text, Type: ty, Line: line}
	if p.accept("=") {
		x, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		d.Init = x
	}
	return d, nil
}

func (p *cparser) parseExprOrAssign() (Stmt, error) {
	line := p.peek().Line
	lhs, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if p.accept("=") {
		rhs, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		return &AssignStmt{LHS: lhs, RHS: rhs, Line: line}, nil
	}
	return &ExprStmt{X: lhs, Line: line}, nil
}

func (p *cparser) parseIf() (Stmt, error) {
	line := p.next().Line // "if"
	if err := p.expect("("); err != nil {
		return nil, err
	}
	cond, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if err := p.expect(")"); err != nil {
		return nil, err
	}
	then, err := p.parseBlock()
	if err != nil {
		return nil, err
	}
	is := &IfStmt{Cond: cond, Then: then, Line: line}
	if p.accept("else") {
		if p.peek().Text == "if" {
			elif, err := p.parseIf()
			if err != nil {
				return nil, err
			}
			is.Else = &BlockStmt{Stmts: []Stmt{elif}}
		} else {
			els, err := p.parseBlock()
			if err != nil {
				return nil, err
			}
			is.Else = els
		}
	}
	return is, nil
}

func (p *cparser) parseWhile() (Stmt, error) {
	line := p.next().Line // "while"
	if err := p.expect("("); err != nil {
		return nil, err
	}
	cond, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if err := p.expect(")"); err != nil {
		return nil, err
	}
	body, err := p.parseBlock()
	if err != nil {
		return nil, err
	}
	return &WhileStmt{Cond: cond, Body: body, Line: line}, nil
}

func (p *cparser) parseDoWhile() (Stmt, error) {
	line := p.next().Line // "do"
	body, err := p.parseBlock()
	if err != nil {
		return nil, err
	}
	if err := p.expect("while"); err != nil {
		return nil, err
	}
	if err := p.expect("("); err != nil {
		return nil, err
	}
	cond, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if err := p.expect(")"); err != nil {
		return nil, err
	}
	if err := p.expect(";"); err != nil {
		return nil, err
	}
	return &WhileStmt{Cond: cond, Body: body, DoWhile: true, Line: line}, nil
}

func (p *cparser) parseFor() (Stmt, error) {
	line := p.next().Line // "for"
	if err := p.expect("("); err != nil {
		return nil, err
	}
	fs := &ForStmt{Line: line}
	if !p.accept(";") {
		var err error
		if p.atType() {
			fs.Init, err = p.parseDecl()
		} else {
			fs.Init, err = p.parseExprOrAssign()
		}
		if err != nil {
			return nil, err
		}
		if err := p.expect(";"); err != nil {
			return nil, err
		}
	}
	if !p.accept(";") {
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		fs.Cond = cond
		if err := p.expect(";"); err != nil {
			return nil, err
		}
	}
	if p.peek().Text != ")" {
		post, err := p.parseExprOrAssign()
		if err != nil {
			return nil, err
		}
		fs.Post = post
	}
	if err := p.expect(")"); err != nil {
		return nil, err
	}
	body, err := p.parseBlock()
	if err != nil {
		return nil, err
	}
	fs.Body = body
	return fs, nil
}

// Binary operator precedence, lowest first.
var precLevels = [][]string{
	{"||"},
	{"&&"},
	{"|"},
	{"^"},
	{"&"},
	{"==", "!="},
	{"<", "<=", ">", ">="},
	{"<<", ">>"},
	{"+", "-"},
	{"*", "/", "%"},
}

func (p *cparser) parseExpr() (Expr, error) { return p.parseBinary(0) }

func (p *cparser) parseBinary(level int) (Expr, error) {
	if level >= len(precLevels) {
		return p.parseUnary()
	}
	lhs, err := p.parseBinary(level + 1)
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		matched := false
		for _, op := range precLevels[level] {
			if t.Kind == TokPunct && t.Text == op {
				matched = true
				break
			}
		}
		if !matched {
			return lhs, nil
		}
		p.next()
		rhs, err := p.parseBinary(level + 1)
		if err != nil {
			return nil, err
		}
		lhs = &Binary{Op: t.Text, X: lhs, Y: rhs, Line: t.Line}
	}
}

func (p *cparser) parseUnary() (Expr, error) {
	t := p.peek()
	switch t.Text {
	case "-", "!", "*", "&", "~":
		p.next()
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &Unary{Op: t.Text, X: x, Line: t.Line}, nil
	}
	// Cast: '(' (int|float) ')' unary  — only scalar casts.
	if t.Text == "(" && p.peekAt(1).Kind == TokKeyword &&
		(p.peekAt(1).Text == "int" || p.peekAt(1).Text == "float") && p.peekAt(2).Text == ")" {
		p.next()
		toTok := p.next()
		p.next()
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		to := TInt
		if toTok.Text == "float" {
			to = TFloat
		}
		return &Cast{To: to, X: x, Line: t.Line}, nil
	}
	return p.parsePostfix()
}

func (p *cparser) parsePostfix() (Expr, error) {
	x, err := p.parsePrimary()
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		switch t.Text {
		case "(":
			p.next()
			call := &CallExpr{Fn: x, Line: t.Line}
			for !p.accept(")") {
				if len(call.Args) > 0 {
					if err := p.expect(","); err != nil {
						return nil, err
					}
				}
				a, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				call.Args = append(call.Args, a)
			}
			x = call
		case "[":
			p.next()
			idx, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expect("]"); err != nil {
				return nil, err
			}
			x = &Index{X: x, I: idx, Line: t.Line}
		default:
			return x, nil
		}
	}
}

func (p *cparser) parsePrimary() (Expr, error) {
	t := p.next()
	switch t.Kind {
	case TokInt:
		v, err := strconv.ParseInt(t.Text, 10, 64)
		if err != nil {
			return nil, err
		}
		return &IntLit{Val: v, Line: t.Line}, nil
	case TokFloat:
		v, err := strconv.ParseFloat(t.Text, 64)
		if err != nil {
			return nil, err
		}
		return &FloatLit{Val: v, Line: t.Line}, nil
	case TokIdent:
		return &Ident{Name: t.Text, Line: t.Line}, nil
	case TokPunct:
		if t.Text == "(" {
			x, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expect(")"); err != nil {
				return nil, err
			}
			return x, nil
		}
	}
	return nil, fmt.Errorf("line %d: expected expression, got %q", t.Line, t.Text)
}

package irtext

import (
	"fmt"
	"math"
	"strconv"

	"noelle/internal/ir"
)

// Parse reads a textual IR module (the format emitted by ir.Print) and
// reconstructs the module. The result is verified before being returned.
func Parse(src string) (*ir.Module, error) {
	m, err := ParseUnverified(src)
	if err != nil {
		return nil, err
	}
	if err := ir.Verify(m); err != nil {
		return nil, fmt.Errorf("parsed module is malformed: %w", err)
	}
	return m, nil
}

// ParseUnverified reads a module without the final verification step.
// It exists for tooling that needs deliberately malformed modules in
// memory — the static verifier's corpus of hand-broken inputs, fuzzing
// harnesses probing the verifier itself — and must not be used by
// anything that will execute the result.
func ParseUnverified(src string) (*ir.Module, error) {
	p := &parser{
		lex:     lexState{sc: scanner{src: src, line: 1}},
		funcs:   map[string]*ir.Function{},
		globals: map[string]*ir.Global{},
	}
	p.lex.tok = p.scan()
	p.lex.ahead = p.scan()
	m, err := p.parseModule()
	// A lex error anywhere in the input wins over a parse error.
	if lexErr := p.lexError(); lexErr != nil {
		return nil, lexErr
	}
	return m, err
}

// lexState is the parser's view of the input: the scanner plus its two
// tokens of lookahead. A copy of it is a saved position.
type lexState struct {
	sc         scanner
	tok, ahead token
}

type parser struct {
	lex lexState
	mod *ir.Module

	// funcs and globals resolve @name to the module's first function or
	// global of that name, as Module.FunctionByName and GlobalByName would.
	funcs   map[string]*ir.Function
	globals map[string]*ir.Global

	lexErr error // the first lex error met by any scan
	clean  bool  // some scan reached the end of the input without one
}

// scan pulls the next token from the scanner, noting how the scan ended.
func (p *parser) scan() token {
	t := p.lex.sc.next()
	if t.kind == tokEOF {
		if p.lex.sc.err != nil {
			p.lexErr = p.lex.sc.err
		} else {
			p.clean = true
		}
	}
	return t
}

// lexError returns the input's first lex error, scanning on to the end of
// the input when no scan has got there yet. Scans only ever run forward
// from ground an earlier scan covered cleanly, so the first error any scan
// meets is the input's first.
func (p *parser) lexError() error {
	for p.lexErr == nil && !p.clean {
		p.scan()
	}
	return p.lexErr
}

func (p *parser) peek() token { return p.lex.tok }
func (p *parser) next() token {
	t := p.lex.tok
	p.lex.tok, p.lex.ahead = p.lex.ahead, p.scan()
	return t
}

// addFunction adds f, whose name the @name table lacks, to the module and
// the table.
func (p *parser) addFunction(f *ir.Function) {
	p.mod.AddFunction(f)
	p.funcs[f.Nam] = f
}

func (p *parser) errf(format string, args ...any) error {
	return fmt.Errorf("line %d: %s", p.peek().line, fmt.Sprintf(format, args...))
}

func (p *parser) expectPunct(s string) error {
	t := p.next()
	if t.kind != tokPunct || t.text != s {
		return fmt.Errorf("line %d: expected %q, got %q", t.line, s, t.text)
	}
	return nil
}

func (p *parser) expectIdent(s string) error {
	t := p.next()
	if t.kind != tokIdent || t.text != s {
		return fmt.Errorf("line %d: expected %q, got %q", t.line, s, t.text)
	}
	return nil
}

func (p *parser) acceptPunct(s string) bool {
	if p.peek().kind == tokPunct && p.peek().text == s {
		p.next()
		return true
	}
	return false
}

func (p *parser) parseString() (string, error) {
	t := p.next()
	if t.kind != tokString {
		return "", fmt.Errorf("line %d: expected string, got %q", t.line, t.text)
	}
	return strconv.Unquote(t.text)
}

func (p *parser) parseModule() (*ir.Module, error) {
	if err := p.expectIdent("module"); err != nil {
		return nil, err
	}
	name, err := p.parseString()
	if err != nil {
		return nil, err
	}
	p.mod = ir.NewModule(name)

	// Pre-scan: create function shells for every definition so bodies can
	// reference functions defined later in the file.
	if err := p.prescanFuncs(); err != nil {
		return nil, err
	}

	for {
		t := p.peek()
		if t.kind == tokEOF {
			break
		}
		if t.kind != tokIdent {
			return nil, p.errf("expected top-level declaration, got %q", t.text)
		}
		switch t.text {
		case "linkopt":
			p.next()
			s, err := p.parseString()
			if err != nil {
				return nil, err
			}
			p.mod.LinkOptions = append(p.mod.LinkOptions, s)
		case "meta":
			p.next()
			k, err := p.parseString()
			if err != nil {
				return nil, err
			}
			if err := p.expectPunct("="); err != nil {
				return nil, err
			}
			v, err := p.parseString()
			if err != nil {
				return nil, err
			}
			p.mod.SetMD(k, v)
		case "global":
			if err := p.parseGlobal(); err != nil {
				return nil, err
			}
		case "declare":
			if err := p.parseDeclare(); err != nil {
				return nil, err
			}
		case "func":
			if err := p.parseFunc(); err != nil {
				return nil, err
			}
		default:
			return nil, p.errf("unknown top-level keyword %q", t.text)
		}
	}
	return p.mod, nil
}

// prescanFuncs walks the token stream at brace depth zero and registers a
// shell for every `func @name(...) ret` definition, then rewinds the lexer
// to where it started.
func (p *parser) prescanFuncs() error {
	save := p.lex
	defer func() { p.lex = save }()
	depth := 0
	for p.peek().kind != tokEOF {
		t := p.next()
		switch {
		case t.kind == tokPunct && t.text == "{":
			depth++
		case t.kind == tokPunct && t.text == "}":
			depth--
		case depth == 0 && t.kind == tokIdent && t.text == "func":
			name, sig, paramNames, err := p.parseFuncSignature()
			if err != nil {
				return err
			}
			if p.funcs[name] == nil {
				p.addFunction(ir.NewFunction(name, sig, paramNames...))
			}
		}
	}
	return nil
}

// parseFuncSignature parses `@name(%p: ty, ...) ret` (after the `func`
// keyword), leaving the cursor after the return type.
func (p *parser) parseFuncSignature() (string, *ir.Type, []string, error) {
	nameTok := p.next()
	if nameTok.kind != tokGlobal {
		return "", nil, nil, fmt.Errorf("line %d: expected @name after func", nameTok.line)
	}
	if err := p.expectPunct("("); err != nil {
		return "", nil, nil, err
	}
	var paramNames []string
	var paramTypes []*ir.Type
	for !p.acceptPunct(")") {
		if len(paramNames) > 0 {
			if err := p.expectPunct(","); err != nil {
				return "", nil, nil, err
			}
		}
		pn := p.next()
		if pn.kind != tokLocal {
			return "", nil, nil, fmt.Errorf("line %d: expected %%param", pn.line)
		}
		if err := p.expectPunct(":"); err != nil {
			return "", nil, nil, err
		}
		pt, err := p.parseType()
		if err != nil {
			return "", nil, nil, err
		}
		paramNames = append(paramNames, pn.text)
		paramTypes = append(paramTypes, pt)
	}
	ret, err := p.parseType()
	if err != nil {
		return "", nil, nil, err
	}
	return nameTok.text, ir.FuncOf(ret, paramTypes...), paramNames, nil
}

func (p *parser) parseType() (*ir.Type, error) {
	t := p.next()
	switch {
	case t.kind == tokIdent && t.text == "void":
		return ir.VoidType, nil
	case t.kind == tokIdent && t.text == "i1":
		return ir.I1Type, nil
	case t.kind == tokIdent && t.text == "i64":
		return ir.I64Type, nil
	case t.kind == tokIdent && t.text == "f64":
		return ir.F64Type, nil
	case t.kind == tokIdent && t.text == "ptr":
		if err := p.expectPunct("<"); err != nil {
			return nil, err
		}
		elem, err := p.parseType()
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct(">"); err != nil {
			return nil, err
		}
		return ir.PointerTo(elem), nil
	case t.kind == tokPunct && t.text == "[":
		n := p.next()
		if n.kind != tokInt {
			return nil, fmt.Errorf("line %d: expected array length", n.line)
		}
		length, err := strconv.Atoi(n.text)
		if err != nil {
			return nil, err
		}
		if err := p.expectIdent("x"); err != nil {
			return nil, err
		}
		elem, err := p.parseType()
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct("]"); err != nil {
			return nil, err
		}
		arr := ir.ArrayOf(elem, length)
		if !ir.Fits(arr, math.MaxInt64) {
			return nil, fmt.Errorf("line %d: array type %s: byte size out of range", t.line, arr)
		}
		return arr, nil
	case t.kind == tokIdent && t.text == "fn":
		if err := p.expectPunct("("); err != nil {
			return nil, err
		}
		var params []*ir.Type
		for !p.acceptPunct(")") {
			if len(params) > 0 {
				if err := p.expectPunct(","); err != nil {
					return nil, err
				}
			}
			pt, err := p.parseType()
			if err != nil {
				return nil, err
			}
			params = append(params, pt)
		}
		ret, err := p.parseType()
		if err != nil {
			return nil, err
		}
		return ir.FuncOf(ret, params...), nil
	}
	return nil, fmt.Errorf("line %d: expected type, got %q", t.line, t.text)
}

// parseMD parses an optional `!{k="v", ...}` attachment.
func (p *parser) parseMD() (ir.Metadata, error) {
	if !(p.peek().kind == tokPunct && p.peek().text == "!") {
		return nil, nil
	}
	p.next()
	if err := p.expectPunct("{"); err != nil {
		return nil, err
	}
	md := ir.Metadata{}
	for !p.acceptPunct("}") {
		if len(md) > 0 {
			if err := p.expectPunct(","); err != nil {
				return nil, err
			}
		}
		k := p.next()
		if k.kind != tokIdent {
			return nil, fmt.Errorf("line %d: expected metadata key", k.line)
		}
		if err := p.expectPunct("="); err != nil {
			return nil, err
		}
		v, err := p.parseString()
		if err != nil {
			return nil, err
		}
		md[k.text] = v
	}
	return md, nil
}

func (p *parser) parseGlobal() error {
	p.next() // "global"
	nameTok := p.next()
	if nameTok.kind != tokGlobal {
		return fmt.Errorf("line %d: expected @name", nameTok.line)
	}
	if err := p.expectPunct(":"); err != nil {
		return err
	}
	ty, err := p.parseType()
	if err != nil {
		return err
	}
	g := &ir.Global{Nam: nameTok.text, Elem: ty}
	isFloat := g.ScalarElem().IsFloat()
	if p.acceptPunct("=") {
		if err := p.expectPunct("{"); err != nil {
			return err
		}
		first := true
		for !p.acceptPunct("}") {
			if !first {
				if err := p.expectPunct(","); err != nil {
					return err
				}
			}
			first = false
			v := p.next()
			switch {
			case isFloat && (v.kind == tokFloat || v.kind == tokInt || isNaN(v)):
				fv, err := strconv.ParseFloat(v.text, 64)
				if err != nil {
					return err
				}
				g.FInit = append(g.FInit, fv)
			case !isFloat && v.kind == tokInt:
				iv, err := strconv.ParseInt(v.text, 10, 64)
				if err != nil {
					return err
				}
				g.Init = append(g.Init, iv)
			default:
				return fmt.Errorf("line %d: bad global initializer %q", v.line, v.text)
			}
		}
	} else if err := p.expectIdent("zeroinit"); err != nil {
		return err
	}
	md, err := p.parseMD()
	if err != nil {
		return err
	}
	g.MD = md
	p.mod.AddGlobal(g)
	if _, ok := p.globals[g.Nam]; !ok {
		p.globals[g.Nam] = g
	}
	return nil
}

// isNaN reports whether t is the NaN literal ir.FormatFloat prints. It
// lexes as an identifier, so a block may still be labelled NaN.
func isNaN(t token) bool { return t.kind == tokIdent && t.text == "NaN" }

func (p *parser) parseDeclare() error {
	p.next() // "declare"
	nameTok := p.next()
	if nameTok.kind != tokGlobal {
		return fmt.Errorf("line %d: expected @name", nameTok.line)
	}
	if err := p.expectPunct(":"); err != nil {
		return err
	}
	sig, err := p.parseType()
	if err != nil {
		return err
	}
	if sig.Kind != ir.FuncKind {
		return fmt.Errorf("line %d: declare %s: not a function type", nameTok.line, nameTok.text)
	}
	md, err := p.parseMD()
	if err != nil {
		return err
	}
	// A definition elsewhere in the file (pre-scanned) satisfies the
	// declaration.
	if exist := p.funcs[nameTok.text]; exist != nil {
		if !exist.Sig.Equal(sig) {
			return fmt.Errorf("line %d: declare @%s conflicts with earlier signature", nameTok.line, nameTok.text)
		}
		return nil
	}
	f := ir.NewFunction(nameTok.text, sig)
	f.MD = md
	p.addFunction(f)
	return nil
}

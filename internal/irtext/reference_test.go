package irtext_test

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"unicode"

	"noelle/internal/ir"
)

// This file is the parser as this package shipped it until the lexer
// became a pull scanner: lex builds the whole token slice up front, the
// parser indexes into it, and @name resolves through the module's linear
// lookups. It is the oracle TestParseMatchesReference and FuzzParse hold
// the package to, output for output and error string for error string.
// Three changes from the shipped code are rules the package took on with
// the scanner, all found by FuzzParse or named with it: +Inf and -Inf lex
// as floats and NaN is a float operand, which is what ir.FormatFloat
// prints (refLexNonFinite and the "NaN" operand case); of several
// undefined branch targets the first one mentioned is reported, where the
// shipped code reported whichever a map iteration met first; and ptradd
// and select results are typed in dependency order
// (typeForwardResults), where the shipped code typed them in layout
// order and dereferenced a nil type on a forward or cyclic operand.

type tokKind int

const (
	tokEOF tokKind = iota
	tokIdent
	tokLocal  // %name
	tokGlobal // @name
	tokInt    // 123, -4
	tokFloat  // 1.5, -2e3
	tokString // "..."
	tokPunct  // single punctuation rune
)

type token struct {
	kind tokKind
	text string
	line int
}

func (t token) String() string {
	switch t.kind {
	case tokEOF:
		return "<eof>"
	default:
		return t.text
	}
}

type lexer struct {
	src  string
	pos  int
	line int
	toks []token
}

func isIdentRune(r byte) bool {
	return r == '_' || r == '.' ||
		(r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') || (r >= '0' && r <= '9')
}

// lex tokenizes the whole input. Comments run from ';' to end of line.
func lex(src string) ([]token, error) {
	l := &lexer{src: src, line: 1}
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch {
		case c == '\n':
			l.line++
			l.pos++
		case c == ' ' || c == '\t' || c == '\r':
			l.pos++
		case c == ';':
			for l.pos < len(l.src) && l.src[l.pos] != '\n' {
				l.pos++
			}
		case c == '"':
			if err := l.lexString(); err != nil {
				return nil, err
			}
		case c == '%' || c == '@':
			kind := tokLocal
			if c == '@' {
				kind = tokGlobal
			}
			start := l.pos + 1
			l.pos++
			for l.pos < len(l.src) && isIdentRune(l.src[l.pos]) {
				l.pos++
			}
			if l.pos == start {
				return nil, fmt.Errorf("line %d: empty %c-identifier", l.line, c)
			}
			l.emit(kind, l.src[start:l.pos])
		case (c == '-' || c == '+') && refLexNonFinite(l):
		case c == '-' || (c >= '0' && c <= '9'):
			if err := l.lexNumber(); err != nil {
				return nil, err
			}
		case isIdentRune(c) && !unicode.IsDigit(rune(c)):
			start := l.pos
			for l.pos < len(l.src) && isIdentRune(l.src[l.pos]) {
				l.pos++
			}
			l.emit(tokIdent, l.src[start:l.pos])
		case strings.ContainsRune("(){}[]<>,:=!", rune(c)):
			l.emit(tokPunct, string(c))
			l.pos++
		default:
			return nil, fmt.Errorf("line %d: unexpected character %q", l.line, c)
		}
	}
	l.emit(tokEOF, "")
	return l.toks, nil
}

// refLexNonFinite emits +Inf or -Inf when the input at l.pos spells one,
// not followed by an identifier rune.
func refLexNonFinite(l *lexer) bool {
	rest := l.src[l.pos+1:]
	if !strings.HasPrefix(rest, "Inf") || (len(rest) > 3 && isIdentRune(rest[3])) {
		return false
	}
	l.emit(tokFloat, l.src[l.pos:l.pos+4])
	l.pos += 4
	return true
}

func (l *lexer) emit(kind tokKind, text string) {
	l.toks = append(l.toks, token{kind: kind, text: text, line: l.line})
}

func (l *lexer) lexString() error {
	start := l.pos
	l.pos++ // opening quote
	for l.pos < len(l.src) {
		switch l.src[l.pos] {
		case '\\':
			l.pos += 2
		case '"':
			l.pos++
			l.emit(tokString, l.src[start:l.pos])
			return nil
		case '\n':
			return fmt.Errorf("line %d: newline in string", l.line)
		default:
			l.pos++
		}
	}
	return fmt.Errorf("line %d: unterminated string", l.line)
}

func (l *lexer) lexNumber() error {
	start := l.pos
	if l.src[l.pos] == '-' {
		l.pos++
	}
	isFloat := false
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch {
		case c >= '0' && c <= '9':
			l.pos++
		case c == '.':
			isFloat = true
			l.pos++
		case c == 'e' || c == 'E':
			isFloat = true
			l.pos++
			if l.pos < len(l.src) && (l.src[l.pos] == '+' || l.src[l.pos] == '-') {
				l.pos++
			}
		default:
			goto done
		}
	}
done:
	text := l.src[start:l.pos]
	if text == "-" {
		return fmt.Errorf("line %d: lone '-'", l.line)
	}
	if isFloat {
		l.emit(tokFloat, text)
	} else {
		l.emit(tokInt, text)
	}
	return nil
}

// refParse reads a textual IR module (the format emitted by ir.Print) and
// reconstructs the module. The result is verified before being returned.
func refParse(src string) (*ir.Module, error) {
	m, err := refParseUnverified(src)
	if err != nil {
		return nil, err
	}
	if err := ir.Verify(m); err != nil {
		return nil, fmt.Errorf("parsed module is malformed: %w", err)
	}
	return m, nil
}

// refParseUnverified reads a module without the final verification step.
func refParseUnverified(src string) (*ir.Module, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	return p.parseModule()
}

type parser struct {
	toks []token
	pos  int
	mod  *ir.Module
}

func (p *parser) peek() token { return p.toks[p.pos] }
func (p *parser) next() token { t := p.toks[p.pos]; p.pos++; return t }
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
		p.pos++
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
// shell for every `func @name(...) ret` definition.
func (p *parser) prescanFuncs() error {
	save := p.pos
	defer func() { p.pos = save }()
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
			if p.mod.FunctionByName(name) == nil {
				p.mod.AddFunction(ir.NewFunction(name, sig, paramNames...))
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
		return ir.ArrayOf(elem, length), nil
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
			case isFloat && (v.kind == tokFloat || v.kind == tokInt || (v.kind == tokIdent && v.text == "NaN")):
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
	return nil
}

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
	if exist := p.mod.FunctionByName(nameTok.text); exist != nil {
		if !exist.Sig.Equal(sig) {
			return fmt.Errorf("line %d: declare @%s conflicts with earlier signature", nameTok.line, nameTok.text)
		}
		return nil
	}
	f := ir.NewFunction(nameTok.text, sig)
	f.MD = md
	p.mod.AddFunction(f)
	return nil
}

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
	fn := p.mod.FunctionByName(name)
	switch {
	case fn == nil:
		fn = ir.NewFunction(name, sig, paramNames...)
		p.mod.AddFunction(fn)
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
		if t.kind == tokIdent && p.toks[p.pos+1].kind == tokPunct && p.toks[p.pos+1].text == ":" {
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
		if f := p.mod.FunctionByName(t.text); f != nil {
			return f, nil
		}
		if g := p.mod.GlobalByName(t.text); g != nil {
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

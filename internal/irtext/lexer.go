// Package irtext parses the textual IR format produced by ir.Print. The
// noelle-* command line tools exchange whole-program IR files in this
// format, mirroring how the paper's tools exchange LLVM bitcode.
package irtext

import (
	"fmt"
	"strings"
)

type tokKind int

const (
	tokEOF tokKind = iota
	tokIdent
	tokLocal  // %name
	tokGlobal // @name
	tokInt    // 123, -4
	tokFloat  // 1.5, -2e3, +Inf, -Inf
	tokString // "..."
	tokPunct  // single punctuation rune
)

type token struct {
	kind tokKind
	text string
	line int
}

// scanner is a pull lexer: the parser asks for one token at a time, so no
// token slice is ever built. Its whole state is a position, a line and
// the first error, so a copy of it is a saved lexer state. After an error
// every call returns EOF. Comments run from ';' to end of line.
type scanner struct {
	src  string
	pos  int
	line int
	err  error
}

func isIdentRune(r byte) bool {
	return r == '_' || r == '.' ||
		(r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') || (r >= '0' && r <= '9')
}

func (s *scanner) next() token {
	for s.err == nil && s.pos < len(s.src) {
		c := s.src[s.pos]
		switch {
		case c == '\n':
			s.line++
			s.pos++
		case c == ' ' || c == '\t' || c == '\r':
			s.pos++
		case c == ';':
			for s.pos < len(s.src) && s.src[s.pos] != '\n' {
				s.pos++
			}
		case c == '"':
			return s.scanString()
		case c == '%' || c == '@':
			kind := tokLocal
			if c == '@' {
				kind = tokGlobal
			}
			s.pos++
			start := s.pos
			for s.pos < len(s.src) && isIdentRune(s.src[s.pos]) {
				s.pos++
			}
			if s.pos == start {
				return s.fail("empty %c-identifier", c)
			}
			return s.tok(kind, start)
		case c == '-' || c == '+' || (c >= '0' && c <= '9'):
			return s.scanNumber()
		case isIdentRune(c):
			start := s.pos
			for s.pos < len(s.src) && isIdentRune(s.src[s.pos]) {
				s.pos++
			}
			return s.tok(tokIdent, start)
		case strings.IndexByte("(){}[]<>,:=!", c) >= 0:
			s.pos++
			return s.tok(tokPunct, s.pos-1)
		default:
			return s.fail("unexpected character %q", c)
		}
	}
	return token{kind: tokEOF, line: s.line}
}

// tok returns the token of kind spanning src[start:pos].
func (s *scanner) tok(kind tokKind, start int) token {
	return token{kind: kind, text: s.src[start:s.pos], line: s.line}
}

func (s *scanner) fail(format string, args ...any) token {
	s.err = fmt.Errorf("line %d: %s", s.line, fmt.Sprintf(format, args...))
	return token{kind: tokEOF, line: s.line}
}

func (s *scanner) scanString() token {
	start := s.pos
	s.pos++ // opening quote
	for s.pos < len(s.src) {
		switch s.src[s.pos] {
		case '\\':
			s.pos += 2
		case '"':
			s.pos++
			return s.tok(tokString, start)
		case '\n':
			return s.fail("newline in string")
		default:
			s.pos++
		}
	}
	return s.fail("unterminated string")
}

// scanNumber lexes an integer or float literal, including the two signed
// infinities ir.FormatFloat prints (NaN is an identifier the operand
// parser maps). A '+' starts nothing else.
func (s *scanner) scanNumber() token {
	start := s.pos
	if c := s.src[s.pos]; c == '-' || c == '+' {
		rest := s.src[s.pos+1:]
		if strings.HasPrefix(rest, "Inf") && (len(rest) == 3 || !isIdentRune(rest[3])) {
			s.pos += 4
			return s.tok(tokFloat, start)
		}
		if c == '+' {
			return s.fail("unexpected character %q", c)
		}
		s.pos++
	}
	isFloat := false
scan:
	for s.pos < len(s.src) {
		switch c := s.src[s.pos]; {
		case c >= '0' && c <= '9':
			s.pos++
		case c == '.':
			isFloat = true
			s.pos++
		case c == 'e' || c == 'E':
			isFloat = true
			s.pos++
			if s.pos < len(s.src) && (s.src[s.pos] == '+' || s.src[s.pos] == '-') {
				s.pos++
			}
		default:
			break scan
		}
	}
	if s.pos-start == 1 && s.src[start] == '-' {
		return s.fail("lone '-'")
	}
	if isFloat {
		return s.tok(tokFloat, start)
	}
	return s.tok(tokInt, start)
}

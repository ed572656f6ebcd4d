// Package js implements the scripting language of the simulated browser: a
// lexer, parser and tree-walking interpreter for the JavaScript subset that
// the paper's examples and workloads exercise — functions with closures and
// hoisted declarations (§4.1 "Functions"), objects, arrays, the usual
// operators and control flow, exceptions with browser crash semantics
// (§2.3: an uncaught exception terminates the current operation but its
// prior heap mutations persist), and a host-object bridge through which the
// browser exposes window, document, DOM nodes, timers and XMLHttpRequest.
//
// The interpreter reports shared-memory accesses (§4.1) through a Hooks
// callback: reads/writes of global variables, of closure-captured locals
// (identified by a static capture analysis at parse time), and of object
// properties. Function declarations are instrumented as hoisted writes and
// calls through a variable as reads, which is what lets the detector
// classify function races (§2.4).
package js

import (
	"fmt"
	"strconv"
	"strings"
)

// TokKind is a lexical token class.
type TokKind uint8

const (
	TokEOF TokKind = iota
	TokIdent
	TokNumber
	TokString
	TokPunct
	TokKeyword
)

// Token is one lexical token. For TokPunct and TokKeyword, Text is the
// operator or keyword itself.
type Token struct {
	Kind TokKind
	Text string
	Num  float64
	Line int
	// NewlineBefore marks a line break between the previous token and
	// this one (consulted for semicolon insertion).
	NewlineBefore bool
}

func (t Token) String() string {
	switch t.Kind {
	case TokEOF:
		return "<eof>"
	case TokNumber:
		return fmt.Sprintf("%v", t.Num)
	case TokString:
		return fmt.Sprintf("%q", t.Text)
	default:
		return t.Text
	}
}

var keywords = map[string]bool{
	"var": true, "function": true, "return": true, "if": true, "else": true,
	"while": true, "do": true, "for": true, "in": true, "break": true,
	"continue": true, "true": true, "false": true, "null": true,
	"undefined": true, "new": true, "typeof": true, "this": true,
	"throw": true, "try": true, "catch": true, "finally": true,
	"delete": true, "instanceof": true, "void": true, "switch": true,
	"case": true, "default": true,
}

// punctuators, longest first, matched greedily.
var puncts = []string{
	"===", "!==", ">>>", "<<=", ">>=",
	"==", "!=", "<=", ">=", "&&", "||", "++", "--",
	"+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<", ">>",
	"{", "}", "(", ")", "[", "]", ";", ",", "<", ">", "+", "-", "*", "/",
	"%", "=", "!", "?", ":", ".", "&", "|", "^", "~",
}

// punctsByByte indexes puncts by first byte; each entry keeps the
// longest-first order, so matchPunct tries only the candidates that can
// match.
var punctsByByte = func() (t [256][]string) {
	for _, p := range puncts {
		t[p[0]] = append(t[p[0]], p)
	}
	return t
}()

// SyntaxError reports a lexing or parsing failure.
type SyntaxError struct {
	Line int
	Msg  string
}

func (e *SyntaxError) Error() string {
	return fmt.Sprintf("js: syntax error at line %d: %s", e.Line, e.Msg)
}

// Lex tokenizes src, returning the token stream ending in TokEOF.
func Lex(src string) ([]Token, error) {
	toks, err := lex(nil, src)
	if err != nil {
		return nil, err
	}
	return toks, nil
}

// lex appends the tokens of src to toks, which Parse passes in from its
// buffer pool. The grown slice comes back even on error, so the caller
// can return it to the pool.
func lex(toks []Token, src string) ([]Token, error) {
	line := 1
	newline := false
	i := 0
	for i < len(src) {
		c := src[i]
		switch {
		case c == '\n':
			line++
			newline = true
			i++
		case c == ' ' || c == '\t' || c == '\r' || c == '\f':
			i++
		case c == '/' && i+1 < len(src) && src[i+1] == '/':
			for i < len(src) && src[i] != '\n' {
				i++
			}
		case c == '/' && i+1 < len(src) && src[i+1] == '*':
			end := strings.Index(src[i+2:], "*/")
			if end < 0 {
				return toks, &SyntaxError{Line: line, Msg: "unterminated block comment"}
			}
			line += strings.Count(src[i:i+2+end+2], "\n")
			i += 2 + end + 2
		case c == '"' || c == '\'':
			s, n, err := lexString(src[i:], line)
			if err != nil {
				return toks, err
			}
			toks = append(toks, Token{Kind: TokString, Text: s, Line: line, NewlineBefore: newline})
			newline = false
			i += n
		case c >= '0' && c <= '9' || c == '.' && i+1 < len(src) && src[i+1] >= '0' && src[i+1] <= '9':
			num, n, err := lexNumber(src[i:], line)
			if err != nil {
				return toks, err
			}
			toks = append(toks, Token{Kind: TokNumber, Num: num, Line: line, NewlineBefore: newline})
			newline = false
			i += n
		case isIdentStart(c):
			start := i
			for i < len(src) && isIdentPart(src[i]) {
				i++
			}
			word := src[start:i]
			kind := TokIdent
			if keywords[word] {
				kind = TokKeyword
			}
			toks = append(toks, Token{Kind: kind, Text: word, Line: line, NewlineBefore: newline})
			newline = false
		default:
			p := matchPunct(src[i:])
			if p == "" {
				return toks, &SyntaxError{Line: line, Msg: fmt.Sprintf("unexpected character %q", c)}
			}
			toks = append(toks, Token{Kind: TokPunct, Text: p, Line: line, NewlineBefore: newline})
			newline = false
			i += len(p)
		}
	}
	toks = append(toks, Token{Kind: TokEOF, Line: line, NewlineBefore: newline})
	return toks, nil
}

// lexString scans the quoted literal at the start of src and returns its
// value and length. A literal without escapes is returned as a substring
// of src; only one with a backslash is decoded into a new string.
func lexString(src string, line int) (string, int, error) {
	quote := src[0]
	for i := 1; i < len(src); i++ {
		switch src[i] {
		case quote:
			return src[1:i], i + 1, nil
		case '\\':
			return lexEscapedString(src, i, line)
		case '\n':
			return "", 0, &SyntaxError{Line: line, Msg: "newline in string literal"}
		}
	}
	return "", 0, &SyntaxError{Line: line, Msg: "unterminated string"}
}

// lexEscapedString finishes lexString from the first backslash, at i.
func lexEscapedString(src string, i, line int) (string, int, error) {
	quote := src[0]
	var b strings.Builder
	b.WriteString(src[1:i])
	for i < len(src) {
		c := src[i]
		switch c {
		case quote:
			return b.String(), i + 1, nil
		case '\\':
			if i+1 >= len(src) {
				return "", 0, &SyntaxError{Line: line, Msg: "unterminated string"}
			}
			i++
			switch src[i] {
			case 'n':
				b.WriteByte('\n')
			case 't':
				b.WriteByte('\t')
			case 'r':
				b.WriteByte('\r')
			case '\\', '\'', '"', '/':
				b.WriteByte(src[i])
			case '0':
				b.WriteByte(0)
			default:
				b.WriteByte(src[i])
			}
			i++
		case '\n':
			return "", 0, &SyntaxError{Line: line, Msg: "newline in string literal"}
		default:
			b.WriteByte(c)
			i++
		}
	}
	return "", 0, &SyntaxError{Line: line, Msg: "unterminated string"}
}

func lexNumber(src string, line int) (float64, int, error) {
	i := 0
	if strings.HasPrefix(src, "0x") || strings.HasPrefix(src, "0X") {
		i = 2
		v := 0.0
		for i < len(src) && isHex(src[i]) {
			v = v*16 + float64(hexVal(src[i]))
			i++
		}
		if i == 2 {
			return 0, 0, &SyntaxError{Line: line, Msg: "malformed hex literal"}
		}
		return v, i, nil
	}
	for i < len(src) && src[i] >= '0' && src[i] <= '9' {
		i++
	}
	if i < len(src) && src[i] == '.' {
		i++
		for i < len(src) && src[i] >= '0' && src[i] <= '9' {
			i++
		}
	}
	if i < len(src) && (src[i] == 'e' || src[i] == 'E') {
		j := i + 1
		if j < len(src) && (src[j] == '+' || src[j] == '-') {
			j++
		}
		digits := false
		for j < len(src) && src[j] >= '0' && src[j] <= '9' {
			j++
			digits = true
		}
		if digits {
			i = j
		}
	}
	// src[:i] is plain decimal; out-of-range literals such as 1e400 fail
	// with ErrRange and are reported as malformed.
	v, err := strconv.ParseFloat(src[:i], 64)
	if err != nil {
		return 0, 0, &SyntaxError{Line: line, Msg: "malformed number"}
	}
	return v, i, nil
}

// matchPunct returns the longest punctuator at the start of the
// non-empty src, or "" if none starts there.
func matchPunct(src string) string {
	for _, p := range punctsByByte[src[0]] {
		if strings.HasPrefix(src, p) {
			return p
		}
	}
	return ""
}

func isIdentStart(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c == '_' || c == '$'
}

func isIdentPart(c byte) bool { return isIdentStart(c) || c >= '0' && c <= '9' }

func isHex(c byte) bool {
	return c >= '0' && c <= '9' || c >= 'a' && c <= 'f' || c >= 'A' && c <= 'F'
}

func hexVal(c byte) int {
	switch {
	case c <= '9':
		return int(c - '0')
	case c <= 'F':
		return int(c-'A') + 10
	default:
		return int(c-'a') + 10
	}
}

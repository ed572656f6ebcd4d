package js

import (
	"fmt"
	"sync"
)

// tokenBufs recycles Parse's token buffers. The AST copies what it needs
// out of the tokens, so a buffer is free again once its parse returns.
var tokenBufs = sync.Pool{New: func() any { return new([]Token) }}

// maxPooledTokens bounds the buffers kept for reuse, so that one huge
// script does not pin its token array in the pool.
const maxPooledTokens = 1 << 16

// Parse parses a script (the contents of a <script> element, an event
// handler attribute, or a timer string) and resolves variable bindings,
// running the capture analysis that decides which locals are potentially
// shared (§4.1).
//
// The whole source is lexed before parsing starts, so a lexical error
// anywhere wins over a parse error earlier in the script.
func Parse(src string) (*Program, error) {
	buf := tokenBufs.Get().(*[]Token)
	toks, err := lex((*buf)[:0], src)
	defer releaseTokens(buf, toks)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	prog := &Program{base: base{Line: 1}}
	for !p.at(TokEOF) {
		s, err := p.statement()
		if err != nil {
			return nil, err
		}
		prog.Body = append(prog.Body, s)
	}
	resolve(prog)
	return prog, nil
}

// releaseTokens clears toks, dropping its references into the source,
// and returns it to the pool as buf.
func releaseTokens(buf *[]Token, toks []Token) {
	clear(toks)
	if cap(toks) <= maxPooledTokens {
		*buf = toks[:0]
		tokenBufs.Put(buf)
	}
}

type parser struct {
	toks []Token
	pos  int
}

func (p *parser) peek() Token { return p.toks[p.pos] }

// next consumes and returns the current token; it is sticky at EOF so that
// error paths deep in the grammar can keep peeking safely.
func (p *parser) next() Token {
	t := p.toks[p.pos]
	if t.Kind != TokEOF {
		p.pos++
	}
	return t
}
func (p *parser) line() int         { return p.peek().Line }
func (p *parser) at(k TokKind) bool { return p.peek().Kind == k }

func (p *parser) atPunct(s string) bool {
	t := p.peek()
	return t.Kind == TokPunct && t.Text == s
}

func (p *parser) atKeyword(s string) bool {
	t := p.peek()
	return t.Kind == TokKeyword && t.Text == s
}

func (p *parser) eatPunct(s string) bool {
	if p.atPunct(s) {
		p.pos++
		return true
	}
	return false
}

func (p *parser) eatKeyword(s string) bool {
	if p.atKeyword(s) {
		p.pos++
		return true
	}
	return false
}

func (p *parser) expectPunct(s string) error {
	if !p.eatPunct(s) {
		return p.errf("expected %q, found %s", s, p.peek())
	}
	return nil
}

// optionalLabel consumes a label identifier after break/continue when it
// sits on the same line (ASI forbids a line break before the label).
func (p *parser) optionalLabel() string {
	t := p.peek()
	if t.Kind == TokIdent && !t.NewlineBefore {
		p.next()
		return t.Text
	}
	return ""
}

func (p *parser) errf(format string, args ...any) error {
	return &SyntaxError{Line: p.line(), Msg: fmt.Sprintf(format, args...)}
}

// expectSemi consumes a statement terminator with automatic semicolon
// insertion: an explicit ';', or a following '}' / EOF / line break.
func (p *parser) expectSemi() error {
	if p.eatPunct(";") {
		return nil
	}
	t := p.peek()
	if t.Kind == TokEOF || t.NewlineBefore || (t.Kind == TokPunct && t.Text == "}") {
		return nil
	}
	return p.errf("expected ';', found %s", t)
}

// ---- statements ----

func (p *parser) statement() (Stmt, error) {
	t := p.peek()
	if t.Kind == TokKeyword {
		switch t.Text {
		case "var":
			s, err := p.varStatement()
			if err != nil {
				return nil, err
			}
			if err := p.expectSemi(); err != nil {
				return nil, err
			}
			return s, nil
		case "function":
			return p.funcDecl()
		case "if":
			return p.ifStatement()
		case "while":
			return p.whileStatement()
		case "do":
			return p.doWhileStatement()
		case "for":
			return p.forStatement()
		case "return":
			return p.returnStatement()
		case "break":
			p.next()
			s := &BreakStmt{base: base{Line: t.Line}, Label: p.optionalLabel()}
			return s, p.expectSemi()
		case "continue":
			p.next()
			s := &ContinueStmt{base: base{Line: t.Line}, Label: p.optionalLabel()}
			return s, p.expectSemi()
		case "throw":
			return p.throwStatement()
		case "try":
			return p.tryStatement()
		case "switch":
			return p.switchStatement()
		}
	}
	if p.atPunct("{") {
		return p.block()
	}
	if p.atPunct(";") {
		p.next()
		return &EmptyStmt{base: base{Line: t.Line}}, nil
	}
	// Labeled statement: `name: stmt`.
	if t.Kind == TokIdent && p.pos+1 < len(p.toks) &&
		p.toks[p.pos+1].Kind == TokPunct && p.toks[p.pos+1].Text == ":" {
		p.next() // label
		p.next() // :
		inner, err := p.statement()
		if err != nil {
			return nil, err
		}
		return &LabeledStmt{base: base{Line: t.Line}, Label: t.Text, Stmt: inner}, nil
	}
	x, err := p.expression()
	if err != nil {
		return nil, err
	}
	if err := p.expectSemi(); err != nil {
		return nil, err
	}
	return &ExprStmt{base: base{Line: t.Line}, X: x}, nil
}

// varStatement parses `var a = 1, b, c = 2` (without the terminator); a
// multi-declarator list becomes a BlockStmt of VarDecls, which the
// interpreter flattens.
func (p *parser) varStatement() (Stmt, error) {
	line := p.line()
	p.next() // var
	var decls []Stmt
	for {
		if !p.at(TokIdent) {
			return nil, p.errf("expected variable name, found %s", p.peek())
		}
		name := p.next().Text
		d := &VarDecl{base: base{Line: line}, Name: name}
		if p.eatPunct("=") {
			init, err := p.assign()
			if err != nil {
				return nil, err
			}
			d.Init = init
		}
		decls = append(decls, d)
		if !p.eatPunct(",") {
			break
		}
	}
	if len(decls) == 1 {
		return decls[0], nil
	}
	return &BlockStmt{base: base{Line: line}, Body: decls}, nil
}

func (p *parser) funcDecl() (Stmt, error) {
	line := p.line()
	p.next() // function
	if !p.at(TokIdent) {
		return nil, p.errf("expected function name, found %s", p.peek())
	}
	name := p.next().Text
	fn, err := p.funcRest(name, line)
	if err != nil {
		return nil, err
	}
	return &FuncDeclStmt{base: base{Line: line}, Name: name, Fn: fn}, nil
}

// funcRest parses the parameter list and body after `function [name]`.
func (p *parser) funcRest(name string, line int) (*FuncLit, error) {
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	var params []string
	for !p.atPunct(")") {
		if !p.at(TokIdent) {
			return nil, p.errf("expected parameter name, found %s", p.peek())
		}
		params = append(params, p.next().Text)
		if !p.eatPunct(",") {
			break
		}
	}
	if err := p.expectPunct(")"); err != nil {
		return nil, err
	}
	if err := p.expectPunct("{"); err != nil {
		return nil, err
	}
	body := &Program{base: base{Line: p.line()}}
	for !p.atPunct("}") && !p.at(TokEOF) {
		s, err := p.statement()
		if err != nil {
			return nil, err
		}
		body.Body = append(body.Body, s)
	}
	if err := p.expectPunct("}"); err != nil {
		return nil, err
	}
	return &FuncLit{base: base{Line: line}, Name: name, Params: params, Body: body}, nil
}

func (p *parser) block() (*BlockStmt, error) {
	line := p.line()
	if err := p.expectPunct("{"); err != nil {
		return nil, err
	}
	b := &BlockStmt{base: base{Line: line}}
	for !p.atPunct("}") && !p.at(TokEOF) {
		s, err := p.statement()
		if err != nil {
			return nil, err
		}
		b.Body = append(b.Body, s)
	}
	return b, p.expectPunct("}")
}

func (p *parser) ifStatement() (Stmt, error) {
	line := p.line()
	p.next() // if
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	cond, err := p.expression()
	if err != nil {
		return nil, err
	}
	if err := p.expectPunct(")"); err != nil {
		return nil, err
	}
	then, err := p.statement()
	if err != nil {
		return nil, err
	}
	s := &IfStmt{base: base{Line: line}, Cond: cond, Then: then}
	if p.eatKeyword("else") {
		s.Else, err = p.statement()
		if err != nil {
			return nil, err
		}
	}
	return s, nil
}

func (p *parser) whileStatement() (Stmt, error) {
	line := p.line()
	p.next() // while
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	cond, err := p.expression()
	if err != nil {
		return nil, err
	}
	if err := p.expectPunct(")"); err != nil {
		return nil, err
	}
	body, err := p.statement()
	if err != nil {
		return nil, err
	}
	return &WhileStmt{base: base{Line: line}, Cond: cond, Body: body}, nil
}

func (p *parser) doWhileStatement() (Stmt, error) {
	line := p.line()
	p.next() // do
	body, err := p.statement()
	if err != nil {
		return nil, err
	}
	if !p.eatKeyword("while") {
		return nil, p.errf("expected 'while' after do body")
	}
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	cond, err := p.expression()
	if err != nil {
		return nil, err
	}
	if err := p.expectPunct(")"); err != nil {
		return nil, err
	}
	p.eatPunct(";")
	return &WhileStmt{base: base{Line: line}, Cond: cond, Body: body, DoWhile: true}, nil
}

func (p *parser) forStatement() (Stmt, error) {
	line := p.line()
	p.next() // for
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	// Distinguish for-in from the three-clause form.
	var init Stmt
	if p.atKeyword("var") {
		s, err := p.varStatement()
		if err != nil {
			return nil, err
		}
		if d, ok := s.(*VarDecl); ok && d.Init == nil && p.atKeyword("in") {
			p.next() // in
			return p.forInRest(line, d.Name)
		}
		init = s
	} else if !p.atPunct(";") {
		x, err := p.expressionNoIn()
		if err != nil {
			return nil, err
		}
		if id, ok := x.(*Ident); ok && p.atKeyword("in") {
			p.next()
			return p.forInRest(line, id.Name)
		}
		init = &ExprStmt{base: base{Line: line}, X: x}
	}
	if err := p.expectPunct(";"); err != nil {
		return nil, err
	}
	var cond, post Expr
	var err error
	if !p.atPunct(";") {
		cond, err = p.expression()
		if err != nil {
			return nil, err
		}
	}
	if err := p.expectPunct(";"); err != nil {
		return nil, err
	}
	if !p.atPunct(")") {
		post, err = p.expression()
		if err != nil {
			return nil, err
		}
	}
	if err := p.expectPunct(")"); err != nil {
		return nil, err
	}
	body, err := p.statement()
	if err != nil {
		return nil, err
	}
	return &ForStmt{base: base{Line: line}, Init: init, Cond: cond, Post: post, Body: body}, nil
}

func (p *parser) forInRest(line int, name string) (Stmt, error) {
	obj, err := p.expression()
	if err != nil {
		return nil, err
	}
	if err := p.expectPunct(")"); err != nil {
		return nil, err
	}
	body, err := p.statement()
	if err != nil {
		return nil, err
	}
	return &ForInStmt{base: base{Line: line}, Name: name, X: obj, Body: body}, nil
}

func (p *parser) returnStatement() (Stmt, error) {
	line := p.line()
	p.next() // return
	s := &ReturnStmt{base: base{Line: line}}
	t := p.peek()
	if t.Kind != TokEOF && !t.NewlineBefore && !p.atPunct(";") && !p.atPunct("}") {
		x, err := p.expression()
		if err != nil {
			return nil, err
		}
		s.X = x
	}
	return s, p.expectSemi()
}

func (p *parser) throwStatement() (Stmt, error) {
	line := p.line()
	p.next() // throw
	x, err := p.expression()
	if err != nil {
		return nil, err
	}
	return &ThrowStmt{base: base{Line: line}, X: x}, p.expectSemi()
}

func (p *parser) tryStatement() (Stmt, error) {
	line := p.line()
	p.next() // try
	try, err := p.block()
	if err != nil {
		return nil, err
	}
	s := &TryStmt{base: base{Line: line}, Try: try}
	if p.eatKeyword("catch") {
		if err := p.expectPunct("("); err != nil {
			return nil, err
		}
		if !p.at(TokIdent) {
			return nil, p.errf("expected catch parameter, found %s", p.peek())
		}
		s.CatchVar = p.next().Text
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
		s.Catch, err = p.block()
		if err != nil {
			return nil, err
		}
	}
	if p.eatKeyword("finally") {
		s.Finally, err = p.block()
		if err != nil {
			return nil, err
		}
	}
	if s.Catch == nil && s.Finally == nil {
		return nil, p.errf("try without catch or finally")
	}
	return s, nil
}

func (p *parser) switchStatement() (Stmt, error) {
	line := p.line()
	p.next() // switch
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	x, err := p.expression()
	if err != nil {
		return nil, err
	}
	if err := p.expectPunct(")"); err != nil {
		return nil, err
	}
	if err := p.expectPunct("{"); err != nil {
		return nil, err
	}
	s := &SwitchStmt{base: base{Line: line}, X: x}
	for !p.atPunct("}") && !p.at(TokEOF) {
		var c SwitchCase
		if p.eatKeyword("case") {
			c.Test, err = p.expression()
			if err != nil {
				return nil, err
			}
		} else if !p.eatKeyword("default") {
			return nil, p.errf("expected 'case' or 'default', found %s", p.peek())
		}
		if err := p.expectPunct(":"); err != nil {
			return nil, err
		}
		for !p.atPunct("}") && !p.atKeyword("case") && !p.atKeyword("default") && !p.at(TokEOF) {
			st, err := p.statement()
			if err != nil {
				return nil, err
			}
			c.Body = append(c.Body, st)
		}
		s.Cases = append(s.Cases, c)
	}
	return s, p.expectPunct("}")
}

// ---- expressions ----

func (p *parser) expression() (Expr, error) { return p.commaExpr(true) }

func (p *parser) expressionNoIn() (Expr, error) { return p.commaExpr(false) }

func (p *parser) commaExpr(allowIn bool) (Expr, error) {
	line := p.line()
	x, err := p.assignIn(allowIn)
	if err != nil {
		return nil, err
	}
	if !p.atPunct(",") {
		return x, nil
	}
	seq := &SeqExpr{base: base{Line: line}, Exprs: []Expr{x}}
	for p.eatPunct(",") {
		e, err := p.assignIn(allowIn)
		if err != nil {
			return nil, err
		}
		seq.Exprs = append(seq.Exprs, e)
	}
	return seq, nil
}

func (p *parser) assign() (Expr, error) { return p.assignIn(true) }

var assignOps = map[string]bool{
	"=": true, "+=": true, "-=": true, "*=": true, "/=": true, "%=": true,
	"&=": true, "|=": true, "^=": true, "<<=": true, ">>=": true,
}

func (p *parser) assignIn(allowIn bool) (Expr, error) {
	line := p.line()
	x, err := p.conditional(allowIn)
	if err != nil {
		return nil, err
	}
	t := p.peek()
	if t.Kind == TokPunct && assignOps[t.Text] {
		switch x.(type) {
		case *Ident, *MemberExpr, *IndexExpr:
		default:
			return nil, p.errf("invalid assignment target")
		}
		p.next()
		rhs, err := p.assignIn(allowIn)
		if err != nil {
			return nil, err
		}
		return &AssignExpr{base: base{Line: line}, Op: t.Text, Target: x, Value: rhs}, nil
	}
	return x, nil
}

func (p *parser) conditional(allowIn bool) (Expr, error) {
	line := p.line()
	cond, err := p.binary(0, allowIn)
	if err != nil {
		return nil, err
	}
	if !p.eatPunct("?") {
		return cond, nil
	}
	then, err := p.assignIn(allowIn)
	if err != nil {
		return nil, err
	}
	if err := p.expectPunct(":"); err != nil {
		return nil, err
	}
	els, err := p.assignIn(allowIn)
	if err != nil {
		return nil, err
	}
	return &CondExpr{base: base{Line: line}, Cond: cond, Then: then, Else: els}, nil
}

// binOps maps operator to precedence level (higher binds tighter).
var binOps = map[string]int{
	"||": 1, "&&": 2,
	"|": 3, "^": 4, "&": 5,
	"==": 6, "!=": 6, "===": 6, "!==": 6,
	"<": 7, ">": 7, "<=": 7, ">=": 7, "in": 7, "instanceof": 7,
	"<<": 8, ">>": 8, ">>>": 8,
	"+": 9, "-": 9,
	"*": 10, "/": 10, "%": 10,
}

func (p *parser) binary(minPrec int, allowIn bool) (Expr, error) {
	x, err := p.unary()
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		var opText string
		if t.Kind == TokPunct {
			opText = t.Text
		} else if t.Kind == TokKeyword && (t.Text == "in" || t.Text == "instanceof") {
			if t.Text == "in" && !allowIn {
				return x, nil
			}
			opText = t.Text
		} else {
			return x, nil
		}
		prec, ok := binOps[opText]
		if !ok || prec <= minPrec {
			return x, nil
		}
		p.next()
		rhs, err := p.binary(prec, allowIn)
		if err != nil {
			return nil, err
		}
		if opText == "&&" || opText == "||" {
			x = &LogicalExpr{base: base{Line: t.Line}, Op: opText, L: x, R: rhs}
		} else {
			x = &BinaryExpr{base: base{Line: t.Line}, Op: opText, L: x, R: rhs}
		}
	}
}

func (p *parser) unary() (Expr, error) {
	t := p.peek()
	if t.Kind == TokPunct {
		switch t.Text {
		case "!", "-", "+", "~":
			p.next()
			x, err := p.unary()
			if err != nil {
				return nil, err
			}
			return &UnaryExpr{base: base{Line: t.Line}, Op: t.Text, X: x}, nil
		case "++", "--":
			p.next()
			x, err := p.unary()
			if err != nil {
				return nil, err
			}
			return &UpdateExpr{base: base{Line: t.Line}, Op: t.Text, X: x, Prefix: true}, nil
		}
	}
	if t.Kind == TokKeyword {
		switch t.Text {
		case "typeof", "void", "delete":
			p.next()
			x, err := p.unary()
			if err != nil {
				return nil, err
			}
			return &UnaryExpr{base: base{Line: t.Line}, Op: t.Text, X: x}, nil
		}
	}
	return p.postfix()
}

func (p *parser) postfix() (Expr, error) {
	x, err := p.callMember()
	if err != nil {
		return nil, err
	}
	t := p.peek()
	if t.Kind == TokPunct && (t.Text == "++" || t.Text == "--") && !t.NewlineBefore {
		p.next()
		return &UpdateExpr{base: base{Line: t.Line}, Op: t.Text, X: x, Prefix: false}, nil
	}
	return x, nil
}

func (p *parser) callMember() (Expr, error) {
	var x Expr
	var err error
	if p.atKeyword("new") {
		line := p.line()
		p.next()
		callee, err := p.memberOnly()
		if err != nil {
			return nil, err
		}
		call := &CallExpr{base: base{Line: line}, Callee: callee, IsNew: true}
		if p.atPunct("(") {
			call.Args, err = p.arguments()
			if err != nil {
				return nil, err
			}
		}
		x = call
	} else {
		x, err = p.primary()
		if err != nil {
			return nil, err
		}
	}
	for {
		switch {
		case p.atPunct("."):
			p.next()
			t := p.next()
			if t.Kind != TokIdent && t.Kind != TokKeyword {
				return nil, p.errf("expected property name, found %s", t)
			}
			x = &MemberExpr{base: base{Line: t.Line}, X: x, Name: t.Text}
		case p.atPunct("["):
			line := p.line()
			p.next()
			idx, err := p.expression()
			if err != nil {
				return nil, err
			}
			if err := p.expectPunct("]"); err != nil {
				return nil, err
			}
			x = &IndexExpr{base: base{Line: line}, X: x, Idx: idx}
		case p.atPunct("("):
			line := p.line()
			args, err := p.arguments()
			if err != nil {
				return nil, err
			}
			x = &CallExpr{base: base{Line: line}, Callee: x, Args: args}
		default:
			return x, nil
		}
	}
}

// memberOnly parses the callee of `new`: a primary with member accesses but
// no call arguments (those belong to the new expression).
func (p *parser) memberOnly() (Expr, error) {
	x, err := p.primary()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.atPunct("."):
			p.next()
			t := p.next()
			if t.Kind != TokIdent && t.Kind != TokKeyword {
				return nil, p.errf("expected property name, found %s", t)
			}
			x = &MemberExpr{base: base{Line: t.Line}, X: x, Name: t.Text}
		case p.atPunct("["):
			line := p.line()
			p.next()
			idx, err := p.expression()
			if err != nil {
				return nil, err
			}
			if err := p.expectPunct("]"); err != nil {
				return nil, err
			}
			x = &IndexExpr{base: base{Line: line}, X: x, Idx: idx}
		default:
			return x, nil
		}
	}
}

func (p *parser) arguments() ([]Expr, error) {
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	var args []Expr
	for !p.atPunct(")") {
		a, err := p.assign()
		if err != nil {
			return nil, err
		}
		args = append(args, a)
		if !p.eatPunct(",") {
			break
		}
	}
	return args, p.expectPunct(")")
}

func (p *parser) primary() (Expr, error) {
	t := p.peek()
	switch t.Kind {
	case TokNumber:
		p.next()
		return &NumLit{base: base{Line: t.Line}, Value: t.Num}, nil
	case TokString:
		p.next()
		return &StrLit{base: base{Line: t.Line}, Value: t.Text}, nil
	case TokIdent:
		p.next()
		return &Ident{base: base{Line: t.Line}, Name: t.Text}, nil
	case TokKeyword:
		switch t.Text {
		case "true", "false":
			p.next()
			return &BoolLit{base: base{Line: t.Line}, Value: t.Text == "true"}, nil
		case "null":
			p.next()
			return &NullLit{base: base{Line: t.Line}}, nil
		case "undefined":
			p.next()
			return &UndefinedLit{base: base{Line: t.Line}}, nil
		case "this":
			p.next()
			return &ThisLit{base: base{Line: t.Line}}, nil
		case "function":
			p.next()
			name := ""
			if p.at(TokIdent) {
				name = p.next().Text
			}
			return p.funcRest(name, t.Line)
		}
	case TokPunct:
		switch t.Text {
		case "(":
			p.next()
			x, err := p.expression()
			if err != nil {
				return nil, err
			}
			return x, p.expectPunct(")")
		case "[":
			p.next()
			arr := &ArrayLit{base: base{Line: t.Line}}
			for !p.atPunct("]") {
				e, err := p.assign()
				if err != nil {
					return nil, err
				}
				arr.Elems = append(arr.Elems, e)
				if !p.eatPunct(",") {
					break
				}
			}
			return arr, p.expectPunct("]")
		case "{":
			return p.objectLit()
		}
	}
	return nil, p.errf("unexpected token %s", t)
}

func (p *parser) objectLit() (Expr, error) {
	line := p.line()
	p.next() // {
	obj := &ObjectLit{base: base{Line: line}}
	for !p.atPunct("}") {
		t := p.next()
		var key string
		switch t.Kind {
		case TokIdent, TokKeyword, TokString:
			key = t.Text
		case TokNumber:
			key = trimNum(t.Num)
		default:
			return nil, p.errf("expected property key, found %s", t)
		}
		if err := p.expectPunct(":"); err != nil {
			return nil, err
		}
		v, err := p.assign()
		if err != nil {
			return nil, err
		}
		obj.Keys = append(obj.Keys, key)
		obj.Vals = append(obj.Vals, v)
		if !p.eatPunct(",") {
			break
		}
	}
	return obj, p.expectPunct("}")
}

func trimNum(f float64) string {
	return fmt.Sprintf("%g", f)
}

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
	defer releaseTokens(buf)
	return parse(buf, src)
}

// parse is Parse lexing into *buf, which it leaves holding the tokens.
func parse(buf *[]Token, src string) (*Program, error) {
	if want := len(src)/3 + 16; cap(*buf) < want {
		// Scripts run to about 0.29 tokens per byte (0.33 at most in
		// the corpus), so a cold buffer sized here rarely grows.
		*buf = make([]Token, 0, want)
	}
	toks, err := lex((*buf)[:0], src)
	*buf = toks
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	prog := &Program{base: base{Line: 1}}
	for !p.atKind(TokEOF) {
		s, err := p.statement()
		if err != nil {
			return nil, err
		}
		prog.Body = append(prog.Body, s)
	}
	resolve(prog)
	return prog, nil
}

// releaseTokens clears the tokens in buf, dropping their references into
// the source, and returns buf to the pool.
func releaseTokens(buf *[]Token) {
	toks := *buf
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

func (p *parser) peek() *Token { return &p.toks[p.pos] }

// next consumes and returns the current token; it is sticky at EOF so that
// error paths deep in the grammar can keep peeking safely.
func (p *parser) next() *Token {
	t := &p.toks[p.pos]
	if t.Kind != TokEOF {
		p.pos++
	}
	return t
}
func (p *parser) line() int             { return int(p.toks[p.pos].Line) }
func (p *parser) atKind(k TokKind) bool { return p.toks[p.pos].Kind == k }

// at reports whether the current token is the punctuator or keyword c.
func (p *parser) at(c Code) bool { return p.toks[p.pos].Code == c }

func (p *parser) eat(c Code) bool {
	if p.at(c) {
		p.pos++
		return true
	}
	return false
}

func (p *parser) expect(c Code) error {
	if !p.eat(c) {
		return p.errf("expected %q, found %s", codeText[c], p.peek())
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
	if p.eat(pSemi) {
		return nil
	}
	t := p.peek()
	if t.Kind == TokEOF || t.NewlineBefore || t.Code == pRBrace {
		return nil
	}
	return p.errf("expected ';', found %s", t)
}

// ---- statements ----

func (p *parser) statement() (Stmt, error) {
	t := p.peek()
	if t.Kind == TokKeyword {
		switch t.Code {
		case kVar:
			s, err := p.varStatement()
			if err != nil {
				return nil, err
			}
			if err := p.expectSemi(); err != nil {
				return nil, err
			}
			return s, nil
		case kFunction:
			return p.funcDecl()
		case kIf:
			return p.ifStatement()
		case kWhile:
			return p.whileStatement()
		case kDo:
			return p.doWhileStatement()
		case kFor:
			return p.forStatement()
		case kReturn:
			return p.returnStatement()
		case kBreak:
			p.next()
			s := &BreakStmt{base: base{Line: int(t.Line)}, Label: p.optionalLabel()}
			return s, p.expectSemi()
		case kContinue:
			p.next()
			s := &ContinueStmt{base: base{Line: int(t.Line)}, Label: p.optionalLabel()}
			return s, p.expectSemi()
		case kThrow:
			return p.throwStatement()
		case kTry:
			return p.tryStatement()
		case kSwitch:
			return p.switchStatement()
		}
	}
	if p.at(pLBrace) {
		return p.block()
	}
	if p.at(pSemi) {
		p.next()
		return &EmptyStmt{base: base{Line: int(t.Line)}}, nil
	}
	// Labeled statement: `name: stmt`.
	if t.Kind == TokIdent && p.pos+1 < len(p.toks) &&
		p.toks[p.pos+1].Code == pColon {
		p.next() // label
		p.next() // :
		inner, err := p.statement()
		if err != nil {
			return nil, err
		}
		return &LabeledStmt{base: base{Line: int(t.Line)}, Label: t.Text, Stmt: inner}, nil
	}
	x, err := p.expression()
	if err != nil {
		return nil, err
	}
	if err := p.expectSemi(); err != nil {
		return nil, err
	}
	return &ExprStmt{base: base{Line: int(t.Line)}, X: x}, nil
}

// varStatement parses `var a = 1, b, c = 2` (without the terminator); a
// multi-declarator list becomes a BlockStmt of VarDecls, which the
// interpreter flattens.
func (p *parser) varStatement() (Stmt, error) {
	line := p.line()
	p.next() // var
	var decls []Stmt
	for {
		if !p.atKind(TokIdent) {
			return nil, p.errf("expected variable name, found %s", p.peek())
		}
		name := p.next().Text
		d := &VarDecl{base: base{Line: line}, Name: name}
		if p.eat(pAssign) {
			init, err := p.assign()
			if err != nil {
				return nil, err
			}
			d.Init = init
		}
		decls = append(decls, d)
		if !p.eat(pComma) {
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
	if !p.atKind(TokIdent) {
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
	if err := p.expect(pLParen); err != nil {
		return nil, err
	}
	var params []string
	for !p.at(pRParen) {
		if !p.atKind(TokIdent) {
			return nil, p.errf("expected parameter name, found %s", p.peek())
		}
		params = append(params, p.next().Text)
		if !p.eat(pComma) {
			break
		}
	}
	if err := p.expect(pRParen); err != nil {
		return nil, err
	}
	if err := p.expect(pLBrace); err != nil {
		return nil, err
	}
	body := &Program{base: base{Line: p.line()}}
	for !p.at(pRBrace) && !p.atKind(TokEOF) {
		s, err := p.statement()
		if err != nil {
			return nil, err
		}
		body.Body = append(body.Body, s)
	}
	if err := p.expect(pRBrace); err != nil {
		return nil, err
	}
	return &FuncLit{base: base{Line: line}, Name: name, Params: params, Body: body}, nil
}

func (p *parser) block() (*BlockStmt, error) {
	line := p.line()
	if err := p.expect(pLBrace); err != nil {
		return nil, err
	}
	b := &BlockStmt{base: base{Line: line}}
	for !p.at(pRBrace) && !p.atKind(TokEOF) {
		s, err := p.statement()
		if err != nil {
			return nil, err
		}
		b.Body = append(b.Body, s)
	}
	return b, p.expect(pRBrace)
}

func (p *parser) ifStatement() (Stmt, error) {
	line := p.line()
	p.next() // if
	if err := p.expect(pLParen); err != nil {
		return nil, err
	}
	cond, err := p.expression()
	if err != nil {
		return nil, err
	}
	if err := p.expect(pRParen); err != nil {
		return nil, err
	}
	then, err := p.statement()
	if err != nil {
		return nil, err
	}
	s := &IfStmt{base: base{Line: line}, Cond: cond, Then: then}
	if p.eat(kElse) {
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
	if err := p.expect(pLParen); err != nil {
		return nil, err
	}
	cond, err := p.expression()
	if err != nil {
		return nil, err
	}
	if err := p.expect(pRParen); err != nil {
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
	if !p.eat(kWhile) {
		return nil, p.errf("expected 'while' after do body")
	}
	if err := p.expect(pLParen); err != nil {
		return nil, err
	}
	cond, err := p.expression()
	if err != nil {
		return nil, err
	}
	if err := p.expect(pRParen); err != nil {
		return nil, err
	}
	p.eat(pSemi)
	return &WhileStmt{base: base{Line: line}, Cond: cond, Body: body, DoWhile: true}, nil
}

func (p *parser) forStatement() (Stmt, error) {
	line := p.line()
	p.next() // for
	if err := p.expect(pLParen); err != nil {
		return nil, err
	}
	// Distinguish for-in from the three-clause form.
	var init Stmt
	if p.at(kVar) {
		s, err := p.varStatement()
		if err != nil {
			return nil, err
		}
		if d, ok := s.(*VarDecl); ok && d.Init == nil && p.at(kIn) {
			p.next() // in
			return p.forInRest(line, d.Name)
		}
		init = s
	} else if !p.at(pSemi) {
		x, err := p.expressionNoIn()
		if err != nil {
			return nil, err
		}
		if id, ok := x.(*Ident); ok && p.at(kIn) {
			p.next()
			return p.forInRest(line, id.Name)
		}
		init = &ExprStmt{base: base{Line: line}, X: x}
	}
	if err := p.expect(pSemi); err != nil {
		return nil, err
	}
	var cond, post Expr
	var err error
	if !p.at(pSemi) {
		cond, err = p.expression()
		if err != nil {
			return nil, err
		}
	}
	if err := p.expect(pSemi); err != nil {
		return nil, err
	}
	if !p.at(pRParen) {
		post, err = p.expression()
		if err != nil {
			return nil, err
		}
	}
	if err := p.expect(pRParen); err != nil {
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
	if err := p.expect(pRParen); err != nil {
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
	if t.Kind != TokEOF && !t.NewlineBefore && !p.at(pSemi) && !p.at(pRBrace) {
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
	if p.eat(kCatch) {
		if err := p.expect(pLParen); err != nil {
			return nil, err
		}
		if !p.atKind(TokIdent) {
			return nil, p.errf("expected catch parameter, found %s", p.peek())
		}
		s.CatchVar = p.next().Text
		if err := p.expect(pRParen); err != nil {
			return nil, err
		}
		s.Catch, err = p.block()
		if err != nil {
			return nil, err
		}
	}
	if p.eat(kFinally) {
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
	if err := p.expect(pLParen); err != nil {
		return nil, err
	}
	x, err := p.expression()
	if err != nil {
		return nil, err
	}
	if err := p.expect(pRParen); err != nil {
		return nil, err
	}
	if err := p.expect(pLBrace); err != nil {
		return nil, err
	}
	s := &SwitchStmt{base: base{Line: line}, X: x}
	for !p.at(pRBrace) && !p.atKind(TokEOF) {
		var c SwitchCase
		if p.eat(kCase) {
			c.Test, err = p.expression()
			if err != nil {
				return nil, err
			}
		} else if !p.eat(kDefault) {
			return nil, p.errf("expected 'case' or 'default', found %s", p.peek())
		}
		if err := p.expect(pColon); err != nil {
			return nil, err
		}
		for !p.at(pRBrace) && !p.at(kCase) && !p.at(kDefault) && !p.atKind(TokEOF) {
			st, err := p.statement()
			if err != nil {
				return nil, err
			}
			c.Body = append(c.Body, st)
		}
		s.Cases = append(s.Cases, c)
	}
	return s, p.expect(pRBrace)
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
	if !p.at(pComma) {
		return x, nil
	}
	seq := &SeqExpr{base: base{Line: line}, Exprs: []Expr{x}}
	for p.eat(pComma) {
		e, err := p.assignIn(allowIn)
		if err != nil {
			return nil, err
		}
		seq.Exprs = append(seq.Exprs, e)
	}
	return seq, nil
}

func (p *parser) assign() (Expr, error) { return p.assignIn(true) }

// assignOps maps each assignment operator to the binary operator it
// applies: pAssign for plain "=", 0 for a code that is no assignment.
var assignOps = [numCodes]Code{
	pAssign: pAssign, pAddAssign: pAdd, pSubAssign: pSub, pMulAssign: pMul,
	pDivAssign: pDiv, pModAssign: pMod, pAndAssign: pAnd, pOrAssign: pOr,
	pXorAssign: pXor, pShlAssign: pShl, pShrAssign: pShr,
}

func (p *parser) assignIn(allowIn bool) (Expr, error) {
	line := p.line()
	x, err := p.conditional(allowIn)
	if err != nil {
		return nil, err
	}
	t := p.peek()
	if op := assignOps[t.Code]; op != 0 {
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
		return &AssignExpr{base: base{Line: line}, Op: t.Text, Code: op, Target: x, Value: rhs}, nil
	}
	return x, nil
}

func (p *parser) conditional(allowIn bool) (Expr, error) {
	line := p.line()
	cond, err := p.binary(0, allowIn)
	if err != nil {
		return nil, err
	}
	if !p.eat(pQuestion) {
		return cond, nil
	}
	then, err := p.assignIn(allowIn)
	if err != nil {
		return nil, err
	}
	if err := p.expect(pColon); err != nil {
		return nil, err
	}
	els, err := p.assignIn(allowIn)
	if err != nil {
		return nil, err
	}
	return &CondExpr{base: base{Line: line}, Cond: cond, Then: then, Else: els}, nil
}

// binPrec is each binary operator's precedence level (higher binds
// tighter); 0 marks a code that is no binary operator.
var binPrec = [numCodes]int8{
	pOrOr: 1, pAndAnd: 2,
	pOr: 3, pXor: 4, pAnd: 5,
	pEq: 6, pNe: 6, pStrictEq: 6, pStrictNe: 6,
	pLt: 7, pGt: 7, pLe: 7, pGe: 7, kIn: 7, kInstanceof: 7,
	pShl: 8, pShr: 8, pUshr: 8,
	pAdd: 9, pSub: 9,
	pMul: 10, pDiv: 10, pMod: 10,
}

func (p *parser) binary(minPrec int8, allowIn bool) (Expr, error) {
	x, err := p.unary()
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		if t.Code == kIn && !allowIn {
			return x, nil
		}
		prec := binPrec[t.Code]
		if prec <= minPrec {
			return x, nil
		}
		p.next()
		rhs, err := p.binary(prec, allowIn)
		if err != nil {
			return nil, err
		}
		if t.Code == pAndAnd || t.Code == pOrOr {
			x = &LogicalExpr{base: base{Line: int(t.Line)}, Op: t.Text, Code: t.Code, L: x, R: rhs}
		} else {
			x = &BinaryExpr{base: base{Line: int(t.Line)}, Op: t.Text, Code: t.Code, L: x, R: rhs}
		}
	}
}

func (p *parser) unary() (Expr, error) {
	t := p.peek()
	switch t.Code {
	case pNot, pSub, pAdd, pTilde, kTypeof, kVoid, kDelete:
		p.next()
		x, err := p.unary()
		if err != nil {
			return nil, err
		}
		return &UnaryExpr{base: base{Line: int(t.Line)}, Op: t.Text, Code: t.Code, X: x}, nil
	case pInc, pDec:
		p.next()
		x, err := p.unary()
		if err != nil {
			return nil, err
		}
		return &UpdateExpr{base: base{Line: int(t.Line)}, Op: t.Text, Code: t.Code, X: x, Prefix: true}, nil
	}
	return p.postfix()
}

func (p *parser) postfix() (Expr, error) {
	x, err := p.callMember()
	if err != nil {
		return nil, err
	}
	t := p.peek()
	if (t.Code == pInc || t.Code == pDec) && !t.NewlineBefore {
		p.next()
		return &UpdateExpr{base: base{Line: int(t.Line)}, Op: t.Text, Code: t.Code, X: x, Prefix: false}, nil
	}
	return x, nil
}

func (p *parser) callMember() (Expr, error) {
	var x Expr
	var err error
	if p.at(kNew) {
		line := p.line()
		p.next()
		callee, err := p.memberOnly()
		if err != nil {
			return nil, err
		}
		call := &CallExpr{base: base{Line: line}, Callee: callee, IsNew: true}
		if p.at(pLParen) {
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
		case p.at(pDot):
			p.next()
			t := p.next()
			if t.Kind != TokIdent && t.Kind != TokKeyword {
				return nil, p.errf("expected property name, found %s", t)
			}
			x = &MemberExpr{base: base{Line: int(t.Line)}, X: x, Name: t.Text}
		case p.at(pLBrack):
			line := p.line()
			p.next()
			idx, err := p.expression()
			if err != nil {
				return nil, err
			}
			if err := p.expect(pRBrack); err != nil {
				return nil, err
			}
			x = &IndexExpr{base: base{Line: line}, X: x, Idx: idx}
		case p.at(pLParen):
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
		case p.at(pDot):
			p.next()
			t := p.next()
			if t.Kind != TokIdent && t.Kind != TokKeyword {
				return nil, p.errf("expected property name, found %s", t)
			}
			x = &MemberExpr{base: base{Line: int(t.Line)}, X: x, Name: t.Text}
		case p.at(pLBrack):
			line := p.line()
			p.next()
			idx, err := p.expression()
			if err != nil {
				return nil, err
			}
			if err := p.expect(pRBrack); err != nil {
				return nil, err
			}
			x = &IndexExpr{base: base{Line: line}, X: x, Idx: idx}
		default:
			return x, nil
		}
	}
}

func (p *parser) arguments() ([]Expr, error) {
	if err := p.expect(pLParen); err != nil {
		return nil, err
	}
	var args []Expr
	for !p.at(pRParen) {
		a, err := p.assign()
		if err != nil {
			return nil, err
		}
		args = append(args, a)
		if !p.eat(pComma) {
			break
		}
	}
	return args, p.expect(pRParen)
}

func (p *parser) primary() (Expr, error) {
	t := p.peek()
	switch t.Kind {
	case TokNumber:
		p.next()
		return &NumLit{base: base{Line: int(t.Line)}, Value: t.Num}, nil
	case TokString:
		p.next()
		return &StrLit{base: base{Line: int(t.Line)}, Value: t.Text}, nil
	case TokIdent:
		p.next()
		return &Ident{base: base{Line: int(t.Line)}, Name: t.Text}, nil
	case TokKeyword:
		switch t.Code {
		case kTrue, kFalse:
			p.next()
			return &BoolLit{base: base{Line: int(t.Line)}, Value: t.Code == kTrue}, nil
		case kNull:
			p.next()
			return &NullLit{base: base{Line: int(t.Line)}}, nil
		case kUndefined:
			p.next()
			return &UndefinedLit{base: base{Line: int(t.Line)}}, nil
		case kThis:
			p.next()
			return &ThisLit{base: base{Line: int(t.Line)}}, nil
		case kFunction:
			p.next()
			name := ""
			if p.atKind(TokIdent) {
				name = p.next().Text
			}
			return p.funcRest(name, int(t.Line))
		}
	case TokPunct:
		switch t.Code {
		case pLParen:
			p.next()
			x, err := p.expression()
			if err != nil {
				return nil, err
			}
			return x, p.expect(pRParen)
		case pLBrack:
			p.next()
			arr := &ArrayLit{base: base{Line: int(t.Line)}}
			for !p.at(pRBrack) {
				e, err := p.assign()
				if err != nil {
					return nil, err
				}
				arr.Elems = append(arr.Elems, e)
				if !p.eat(pComma) {
					break
				}
			}
			return arr, p.expect(pRBrack)
		case pLBrace:
			return p.objectLit()
		}
	}
	return nil, p.errf("unexpected token %s", t)
}

func (p *parser) objectLit() (Expr, error) {
	line := p.line()
	p.next() // {
	obj := &ObjectLit{base: base{Line: line}}
	for !p.at(pRBrace) {
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
		if err := p.expect(pColon); err != nil {
			return nil, err
		}
		v, err := p.assign()
		if err != nil {
			return nil, err
		}
		obj.Keys = append(obj.Keys, key)
		obj.Vals = append(obj.Vals, v)
		if !p.eat(pComma) {
			break
		}
	}
	return obj, p.expect(pRBrace)
}

func trimNum(f float64) string {
	return fmt.Sprintf("%g", f)
}

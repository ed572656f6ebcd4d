package js

// Node is the common interface of AST nodes.
type Node interface{ line() int }

// Stmt is a statement node.
type Stmt interface {
	Node
	stmtNode()
}

// Expr is an expression node.
type Expr interface {
	Node
	exprNode()
}

type base struct{ Line int }

func (b base) line() int { return b.Line }

// ---- statements ----

// Program is a parsed script: the body of a <script> element, an event
// handler attribute, or a function body.
type Program struct {
	base
	Body []Stmt
	// Hoisted lists the bindings declared by var statements and function
	// declarations anywhere in this program/function body (not nested
	// functions); computed by the resolver.
	Hoisted []*VarRef
	// FuncDecls lists the function declarations to hoist-write at entry,
	// in source order.
	FuncDecls []*FuncDeclStmt
}

// VarDecl is one `var name = init` declarator (a multi-declarator statement
// is split into several VarDecls).
type VarDecl struct {
	base
	Name string
	// Ref is the hoisted binding the declaration creates; Addr is what
	// the initializer assigns, which a catch parameter of the same name
	// can shadow.
	Ref  *VarRef
	Addr Addr
	Init Expr // nil for a bare declaration
}

// FuncDeclStmt is `function name(...) {...}`. Per §4.1 it is treated as a
// hoisted write of an anonymous function to a local named Name at scope
// entry; the statement itself is a no-op at its source position.
type FuncDeclStmt struct {
	base
	Name string
	Ref  *VarRef
	Fn   *FuncLit
}

// ExprStmt evaluates an expression for effect.
type ExprStmt struct {
	base
	X Expr
}

// BlockStmt is { ... }.
type BlockStmt struct {
	base
	Body []Stmt
}

// IfStmt is if/else.
type IfStmt struct {
	base
	Cond Expr
	Then Stmt
	Else Stmt // may be nil
}

// WhileStmt is while (Cond) Body; DoWhile marks do/while.
type WhileStmt struct {
	base
	Cond    Expr
	Body    Stmt
	DoWhile bool
}

// ForStmt is for(Init; Cond; Post) Body; any part may be nil.
type ForStmt struct {
	base
	Init Stmt // VarDecl list wrapped in BlockStmt, or ExprStmt, or nil
	Cond Expr
	Post Expr
	Body Stmt
}

// ForInStmt is for (var Name in X) Body. Ref and Addr are as in VarDecl.
type ForInStmt struct {
	base
	Name string
	Ref  *VarRef
	Addr Addr
	X    Expr
	Body Stmt
}

// ReturnStmt returns X (nil for bare return).
type ReturnStmt struct {
	base
	X Expr
}

// BreakStmt breaks the innermost loop, or the loop labeled Label.
type BreakStmt struct {
	base
	Label string
}

// ContinueStmt continues the innermost loop, or the loop labeled Label.
type ContinueStmt struct {
	base
	Label string
}

// LabeledStmt is `name: stmt` (loops only, the form real code uses).
type LabeledStmt struct {
	base
	Label string
	Stmt  Stmt
}

// ThrowStmt throws X.
type ThrowStmt struct {
	base
	X Expr
}

// TryStmt is try/catch/finally. Catch may be nil (try/finally) and Finally
// may be nil (try/catch).
type TryStmt struct {
	base
	Try      *BlockStmt
	CatchVar string
	CatchRef *VarRef
	// CatchScope is the one-slot scope the catch parameter lives in.
	CatchScope Scope
	Catch      *BlockStmt
	Finally    *BlockStmt
}

// SwitchStmt is switch (X) { case ...: ... default: ... }.
type SwitchStmt struct {
	base
	X     Expr
	Cases []SwitchCase
}

// SwitchCase is one case (Test nil for default).
type SwitchCase struct {
	Test Expr
	Body []Stmt
}

// EmptyStmt is a lone semicolon.
type EmptyStmt struct{ base }

func (*Program) stmtNode()      {}
func (*VarDecl) stmtNode()      {}
func (*FuncDeclStmt) stmtNode() {}
func (*ExprStmt) stmtNode()     {}
func (*BlockStmt) stmtNode()    {}
func (*IfStmt) stmtNode()       {}
func (*WhileStmt) stmtNode()    {}
func (*ForStmt) stmtNode()      {}
func (*ForInStmt) stmtNode()    {}
func (*ReturnStmt) stmtNode()   {}
func (*BreakStmt) stmtNode()    {}
func (*ContinueStmt) stmtNode() {}
func (*ThrowStmt) stmtNode()    {}
func (*LabeledStmt) stmtNode()  {}
func (*TryStmt) stmtNode()      {}
func (*SwitchStmt) stmtNode()   {}
func (*EmptyStmt) stmtNode()    {}

// ---- expressions ----

// VarRef is the static resolution of a variable name, shared by every
// reference to the same binding. The capture analysis marks bindings that
// nested functions reference; those (and globals) are the "potentially
// shared" JSVar locations of §4.1 that the interpreter instruments.
type VarRef struct {
	Name string
	// Global is set when no enclosing function declares the name.
	Global bool
	// Captured is set when a nested function references this binding.
	// Every declaration through a captured ref draws a fresh serial.
	Captured bool
	// Slot is the binding's index in its function or catch scope
	// (unused for globals).
	Slot int32
	// declShared marks a captured ref whose first declaration makes the
	// binding instrumented. It is Captured except for a function's own
	// name and a non-parameter `arguments`, which the activation
	// declares, uninstrumented, before the ref's declaration runs.
	declShared bool
}

// Scope is the static layout of one run-time scope, a function
// activation or a catch block: the names of its slots, in slot order.
type Scope struct{ Names []string }

// Addr locates a reference's run-time binding, resolved at parse time:
// Hops scopes outward from the reference's scope, then slot Slot there.
// A negative Slot names a global; Hops then reaches the scope chain's
// root, where the global is looked up by name.
type Addr struct{ Hops, Slot int32 }

// Ident is a variable reference. Ref is the name's static binding as the
// capture analysis sees it; Addr is where the interpreter finds it. The
// two differ only for `arguments`, which the capture analysis resolves
// past the function's own arguments object.
type Ident struct {
	base
	Name string
	Ref  *VarRef
	Addr Addr
}

// NumLit is a number literal.
type NumLit struct {
	base
	Value float64
}

// StrLit is a string literal.
type StrLit struct {
	base
	Value string
}

// BoolLit is true/false.
type BoolLit struct {
	base
	Value bool
}

// NullLit is null.
type NullLit struct{ base }

// UndefinedLit is undefined.
type UndefinedLit struct{ base }

// ThisLit is this.
type ThisLit struct{ base }

// FuncLit is a function expression (and the value of declarations).
type FuncLit struct {
	base
	Name   string // non-empty for declarations/named expressions
	Params []string
	Body   *Program
	// ParamRefs are the resolved bindings of the parameters.
	ParamRefs []*VarRef
	// Scope is the activation's slot layout.
	Scope Scope
	// SelfRef is the binding of the function's own name (nil when
	// anonymous); ArgsRef that of `arguments`, nil when the body never
	// references it, so that calls skip building the arguments object.
	SelfRef, ArgsRef *VarRef
}

// ArrayLit is [a, b, ...].
type ArrayLit struct {
	base
	Elems []Expr
}

// ObjectLit is {k: v, ...}.
type ObjectLit struct {
	base
	Keys []string
	Vals []Expr
}

// MemberExpr is X.Name.
type MemberExpr struct {
	base
	X    Expr
	Name string
}

// IndexExpr is X[Idx].
type IndexExpr struct {
	base
	X   Expr
	Idx Expr
}

// CallExpr is Callee(Args). IsNew marks `new Callee(Args)`.
type CallExpr struct {
	base
	Callee Expr
	Args   []Expr
	IsNew  bool
}

// AssignExpr is Target op= Value, where Op is "=", "+=", etc. Code is
// the binary operator a compound assignment applies (pAdd for "+="), or
// pAssign for plain "=".
type AssignExpr struct {
	base
	Op     string
	Code   Code
	Target Expr // Ident, MemberExpr or IndexExpr
	Value  Expr
}

// UpdateExpr is ++/-- (Prefix marks the prefix form).
type UpdateExpr struct {
	base
	Op     string // "++" or "--"
	Code   Code
	X      Expr
	Prefix bool
}

// UnaryExpr is !x, -x, +x, ~x, typeof x, void x, delete x.
type UnaryExpr struct {
	base
	Op   string
	Code Code
	X    Expr
}

// BinaryExpr is the non-short-circuit binary operators.
type BinaryExpr struct {
	base
	Op   string
	Code Code
	L, R Expr
}

// LogicalExpr is && and || (short-circuit).
type LogicalExpr struct {
	base
	Op   string
	Code Code
	L, R Expr
}

// CondExpr is Cond ? Then : Else.
type CondExpr struct {
	base
	Cond, Then, Else Expr
}

// SeqExpr is the comma operator.
type SeqExpr struct {
	base
	Exprs []Expr
}

func (*Ident) exprNode()        {}
func (*NumLit) exprNode()       {}
func (*StrLit) exprNode()       {}
func (*BoolLit) exprNode()      {}
func (*NullLit) exprNode()      {}
func (*UndefinedLit) exprNode() {}
func (*ThisLit) exprNode()      {}
func (*FuncLit) exprNode()      {}
func (*ArrayLit) exprNode()     {}
func (*ObjectLit) exprNode()    {}
func (*MemberExpr) exprNode()   {}
func (*IndexExpr) exprNode()    {}
func (*CallExpr) exprNode()     {}
func (*AssignExpr) exprNode()   {}
func (*UpdateExpr) exprNode()   {}
func (*UnaryExpr) exprNode()    {}
func (*BinaryExpr) exprNode()   {}
func (*LogicalExpr) exprNode()  {}
func (*CondExpr) exprNode()     {}
func (*SeqExpr) exprNode()      {}

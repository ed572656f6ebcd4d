package js

import (
	"fmt"

	"webracer/internal/mem"
)

// Serials allocates object/closure/binding identities; the browser shares
// one allocator between the DOM and the interpreter so logical memory
// locations never collide.
type Serials interface{ Next() uint64 }

// Hooks receives the shared-memory accesses of §4.1 as they happen. The
// browser routes them to the race detector stamped with the current
// operation.
type Hooks interface {
	Access(kind mem.AccessKind, loc mem.Loc, ctx mem.Context, desc string)
}

// Error is a JavaScript runtime error: a ReferenceError, TypeError,
// RangeError, InternalError (step budget exhausted) or a thrown value.
// Per §2.3, the browser treats an Error escaping a script as a hidden
// crash: the current operation terminates, its earlier heap mutations
// persist, and the page carries on.
type Error struct {
	Kind      string
	Msg       string
	Thrown    Value
	HasThrown bool
	Line      int
}

func (e *Error) Error() string {
	if e.HasThrown {
		return fmt.Sprintf("js: uncaught %s (line %d)", e.Thrown.ToString(), e.Line)
	}
	return fmt.Sprintf("js: %s: %s (line %d)", e.Kind, e.Msg, e.Line)
}

func typeError(line int, format string, args ...any) *Error {
	return &Error{Kind: "TypeError", Msg: fmt.Sprintf(format, args...), Line: line}
}

func refError(line int, name string) *Error {
	return &Error{Kind: "ReferenceError", Msg: name + " is not defined", Line: line}
}

// DefaultMaxSteps bounds a single script execution; a runaway loop becomes
// an InternalError rather than hanging the simulated browser.
const DefaultMaxSteps = 20_000_000

// Interp evaluates scripts against one global scope (one window).
type Interp struct {
	// GlobalThis is the value of `this` at top level (the window object).
	GlobalThis Value
	// MaxSteps bounds evaluation steps per Run/CallFunction entry.
	MaxSteps int
	// Rand supplies Math.random; the browser seeds it for determinism.
	Rand func() float64
	// Now supplies Date.now in milliseconds (virtual time).
	Now func() float64
	// Programs, when non-nil, is the parse memo Run and CompileFunction
	// parse through (see Programs); nil parses every source afresh.
	Programs *Programs

	global  *Env
	serials Serials
	// building..buildEnd are the reserved serials left to the builtin
	// being built (see Reserve); building is 0 otherwise.
	building, buildEnd uint64
	hooks              Hooks
	steps              int
	total              int // steps across all Run/CallFunction entries (telemetry)
	depth              int
}

// maxDepth bounds recursion (JS stack overflow becomes RangeError).
const maxDepth = 2000

// New creates an interpreter with a fresh global scope and the standard
// builtins (Math, parseInt, parseFloat, isNaN, String, Number, Boolean,
// Array, …), reserved: each is built when a script first touches it (see
// Reserve). The browser adds window/document on top.
func New(serials Serials, hooks Hooks) *Interp {
	it := &Interp{
		MaxSteps: DefaultMaxSteps,
		serials:  serials,
		hooks:    hooks,
		Rand:     newLCG(1),
		Now:      func() float64 { return 0 },
	}
	it.global = &Env{vars: make(map[string]*Binding), GlobalSerial: serials.Next()}
	it.Reserve(coreBuiltins, nil)
	return it
}

// newLCG returns a small deterministic PRNG for Math.random.
func newLCG(seed uint64) func() float64 {
	s := seed*6364136223846793005 + 1442695040888963407
	return func() float64 {
		s = s*6364136223846793005 + 1442695040888963407
		return float64(s>>11) / float64(1<<53)
	}
}

// GlobalEnv exposes the global scope (the browser defines window globals).
func (it *Interp) GlobalEnv() *Env { return it.global }

// DefineGlobal installs a global binding without instrumentation (host
// setup, not page activity).
func (it *Interp) DefineGlobal(name string, v Value) {
	it.global.declareGlobal(name).Value = v
}

// LookupGlobal reads a global binding without instrumentation.
func (it *Interp) LookupGlobal(name string) (Value, bool) {
	if b := it.global.global(name); b != nil {
		return b.Value, true
	}
	return Value{}, false
}

// NewObject allocates a plain object.
func (it *Interp) NewObject(class string) *Object {
	return &Object{Serial: it.nextSerial(), Class: class}
}

// NewArray allocates an array object with the given elements.
func (it *Interp) NewArray(elems ...Value) *Object {
	o := it.NewObject("Array")
	o.IsArray = true
	o.Elems = append(o.Elems, elems...)
	return o
}

// NativeFunc wraps a Go function as a callable value.
func (it *Interp) NativeFunc(name string, fn NativeFn) Value {
	o := it.NewObject("Function")
	o.Fn = &Closure{Serial: o.Serial, Name: name, Native: fn, Self: o}
	return ObjectVal(o)
}

// NewClosure builds a function object for a FuncLit closing over env.
func (it *Interp) NewClosure(fn *FuncLit, env *Env) Value {
	o := it.NewObject("Function")
	o.Fn = &Closure{Serial: o.Serial, Name: fn.Name, Decl: fn, Env: env, Self: o}
	return ObjectVal(o)
}

// CompileFunction parses src as a function body with the given parameters
// (used for on-event attributes and string timer arguments) and returns
// the closure value, closed over the global scope.
func (it *Interp) CompileFunction(src string, params ...string) (Value, error) {
	var b []byte
	b = append(b, "function __h__("...)
	for i, p := range params {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, p...)
	}
	b = append(b, "){"...)
	b = append(b, src...)
	b = append(b, '}')
	prog, err := it.Programs.Parse(string(b))
	if err != nil {
		return Undefined, err
	}
	decl, ok := prog.Body[0].(*FuncDeclStmt)
	if !ok {
		return Undefined, &SyntaxError{Line: 1, Msg: "internal: handler wrapper did not parse to a declaration"}
	}
	v := it.NewClosure(decl.Fn, it.global)
	v.Obj.Fn.Name = ""
	return v, nil
}

// Run parses and executes a script at top level. desc labels the script in
// access descriptions.
func (it *Interp) Run(src, desc string) error {
	prog, err := it.Programs.Parse(src)
	if err != nil {
		return err
	}
	return it.RunProgram(prog, desc)
}

// RunProgram executes an already-parsed script at top level.
func (it *Interp) RunProgram(prog *Program, desc string) error {
	it.total += it.steps
	it.steps = 0
	it.hoistInto(prog, it.global)
	_, err := it.execStmts(prog.Body, it.global)
	return err
}

// CallFunction invokes a function value. The step budget is reset: the call
// is a fresh operation entry from the browser.
func (it *Interp) CallFunction(fn Value, this Value, args []Value) (Value, error) {
	it.total += it.steps
	it.steps = 0
	if !fn.IsCallable() {
		return Undefined, typeError(0, "value is not a function")
	}
	return it.call(fn.Obj.Fn, this, args, 0)
}

// access forwards one instrumented access to the hooks.
func (it *Interp) access(kind mem.AccessKind, loc mem.Loc, ctx mem.Context, desc string) {
	if it.hooks != nil {
		it.hooks.Access(kind, loc, ctx, desc)
	}
}

// bindingLoc computes the logical location of a binding resolved in
// defEnv: globals key on the global scope serial, captured locals on the
// binding's own serial.
func bindingLoc(b *Binding, defEnv *Env, name string) mem.Loc {
	if defEnv.IsGlobal() {
		return mem.VarLoc(defEnv.GlobalSerial, name)
	}
	return mem.VarLoc(b.Serial, name)
}

func instrumented(b *Binding, defEnv *Env) bool { return defEnv.IsGlobal() || b.Serial != 0 }

// hoistInto declares the hoisted names of prog in env and performs the
// function-declaration writes of §4.1 in source order.
func (it *Interp) hoistInto(prog *Program, env *Env) {
	global := env.IsGlobal()
	for _, ref := range prog.Hoisted {
		if global {
			env.declareGlobal(ref.Name)
		} else {
			it.declare(&env.slots[ref.Slot], ref)
		}
	}
	for _, fd := range prog.FuncDecls {
		fn := it.NewClosure(fd.Fn, env)
		var b *Binding
		if global {
			b = env.vars[fd.Name]
		} else {
			b = &env.slots[fd.Ref.Slot]
		}
		if instrumented(b, env) {
			it.access(mem.Write, bindingLoc(b, env, fd.Name), mem.CtxFuncDecl,
				"function "+fd.Name)
		}
		b.Value = fn
	}
}

// declare runs one declaration of a local through ref: a captured ref
// draws a serial each time, and the binding takes the one its first
// instrumented declaration draws.
func (it *Interp) declare(b *Binding, ref *VarRef) {
	if !ref.Captured {
		return
	}
	s := it.nextSerial()
	if ref.declShared && b.Serial == 0 {
		b.Serial = s
	}
}

// TotalSteps reports the evaluation steps performed over the
// interpreter's whole lifetime (all Run/CallFunction entries). The
// per-entry budget bookkeeping already maintains the count, so the
// telemetry layer reads it for free.
func (it *Interp) TotalSteps() int { return it.total + it.steps }

// step charges fuel and errors out when the budget is gone.
func (it *Interp) step(line int) error {
	it.steps++
	if it.steps > it.MaxSteps {
		return &Error{Kind: "InternalError", Msg: "step budget exhausted (infinite loop?)", Line: line}
	}
	return nil
}

// ---- statement execution ----

type ctrlKind uint8

const (
	ctrlNormal ctrlKind = iota
	ctrlReturn
	ctrlBreak
	ctrlContinue
)

type ctrl struct {
	kind  ctrlKind
	val   Value
	label string // break/continue target; empty for the innermost loop
}

// consumes reports whether a loop labeled `label` (empty for an unlabeled
// loop) absorbs this break/continue.
func (c ctrl) consumes(label string) bool { return c.label == "" || c.label == label }

func (it *Interp) execStmts(stmts []Stmt, env *Env) (ctrl, error) {
	for _, s := range stmts {
		c, err := it.execStmt(s, env)
		if err != nil || c.kind != ctrlNormal {
			return c, err
		}
	}
	return ctrl{}, nil
}

func (it *Interp) execStmt(s Stmt, env *Env) (ctrl, error) {
	if err := it.step(s.line()); err != nil {
		return ctrl{}, err
	}
	switch s := s.(type) {
	case *VarDecl:
		if s.Init == nil {
			return ctrl{}, nil
		}
		v, err := it.evalExpr(s.Init, env)
		if err != nil {
			return ctrl{}, err
		}
		it.assignIdent(s.Name, s.Addr, v, env)
		return ctrl{}, nil
	case *FuncDeclStmt:
		return ctrl{}, nil // hoisted at entry
	case *ExprStmt:
		_, err := it.evalExpr(s.X, env)
		return ctrl{}, err
	case *BlockStmt:
		return it.execStmts(s.Body, env)
	case *IfStmt:
		cond, err := it.evalExpr(s.Cond, env)
		if err != nil {
			return ctrl{}, err
		}
		if cond.Truthy() {
			return it.execStmt(s.Then, env)
		}
		if s.Else != nil {
			return it.execStmt(s.Else, env)
		}
		return ctrl{}, nil
	case *WhileStmt:
		return it.execWhile(s, env)
	case *ForStmt:
		return it.execFor(s, env)
	case *ForInStmt:
		return it.execForIn(s, env)
	case *ReturnStmt:
		v := Undefined
		if s.X != nil {
			var err error
			v, err = it.evalExpr(s.X, env)
			if err != nil {
				return ctrl{}, err
			}
		}
		return ctrl{kind: ctrlReturn, val: v}, nil
	case *BreakStmt:
		return ctrl{kind: ctrlBreak, label: s.Label}, nil
	case *ContinueStmt:
		return ctrl{kind: ctrlContinue, label: s.Label}, nil
	case *LabeledStmt:
		return it.execLabeled(s, env)
	case *ThrowStmt:
		v, err := it.evalExpr(s.X, env)
		if err != nil {
			return ctrl{}, err
		}
		return ctrl{}, &Error{Kind: "throw", Thrown: v, HasThrown: true, Line: s.Line}
	case *TryStmt:
		return it.execTry(s, env)
	case *SwitchStmt:
		return it.execSwitch(s, env)
	case *EmptyStmt:
		return ctrl{}, nil
	default:
		return ctrl{}, typeError(s.line(), "unsupported statement %T", s)
	}
}

// execLabeled runs a labeled statement: the label is passed to the labeled
// loop so `break label` / `continue label` resolve to it. A label on a
// non-loop statement only supports `break label` (rare; handled by
// absorbing the matching break here).
func (it *Interp) execLabeled(s *LabeledStmt, env *Env) (ctrl, error) {
	var c ctrl
	var err error
	switch inner := s.Stmt.(type) {
	case *WhileStmt:
		c, err = it.execWhileL(inner, env, s.Label)
	case *ForStmt:
		c, err = it.execForL(inner, env, s.Label)
	case *ForInStmt:
		c, err = it.execForInL(inner, env, s.Label)
	default:
		c, err = it.execStmt(s.Stmt, env)
	}
	if err == nil && c.kind == ctrlBreak && c.label == s.Label {
		return ctrl{}, nil
	}
	return c, err
}

func (it *Interp) execWhile(s *WhileStmt, env *Env) (ctrl, error) {
	return it.execWhileL(s, env, "")
}

func (it *Interp) execWhileL(s *WhileStmt, env *Env, label string) (ctrl, error) {
	first := s.DoWhile
	for {
		if !first {
			cond, err := it.evalExpr(s.Cond, env)
			if err != nil {
				return ctrl{}, err
			}
			if !cond.Truthy() {
				return ctrl{}, nil
			}
		}
		first = false
		c, err := it.execStmt(s.Body, env)
		if err != nil {
			return ctrl{}, err
		}
		switch c.kind {
		case ctrlBreak:
			if c.consumes(label) {
				return ctrl{}, nil
			}
			return c, nil
		case ctrlContinue:
			if !c.consumes(label) {
				return c, nil
			}
		case ctrlReturn:
			return c, nil
		}
		if err := it.step(s.Line); err != nil {
			return ctrl{}, err
		}
	}
}

func (it *Interp) execFor(s *ForStmt, env *Env) (ctrl, error) {
	return it.execForL(s, env, "")
}

func (it *Interp) execForL(s *ForStmt, env *Env, label string) (ctrl, error) {
	if s.Init != nil {
		if c, err := it.execStmt(s.Init, env); err != nil || c.kind != ctrlNormal {
			return c, err
		}
	}
	for {
		if s.Cond != nil {
			cond, err := it.evalExpr(s.Cond, env)
			if err != nil {
				return ctrl{}, err
			}
			if !cond.Truthy() {
				return ctrl{}, nil
			}
		}
		c, err := it.execStmt(s.Body, env)
		if err != nil {
			return ctrl{}, err
		}
		switch c.kind {
		case ctrlBreak:
			if c.consumes(label) {
				return ctrl{}, nil
			}
			return c, nil
		case ctrlContinue:
			if !c.consumes(label) {
				return c, nil
			}
		case ctrlReturn:
			return c, nil
		}
		if s.Post != nil {
			if _, err := it.evalExpr(s.Post, env); err != nil {
				return ctrl{}, err
			}
		}
		if err := it.step(s.Line); err != nil {
			return ctrl{}, err
		}
	}
}

func (it *Interp) execForIn(s *ForInStmt, env *Env) (ctrl, error) {
	return it.execForInL(s, env, "")
}

func (it *Interp) execForInL(s *ForInStmt, env *Env, label string) (ctrl, error) {
	objV, err := it.evalExpr(s.X, env)
	if err != nil {
		return ctrl{}, err
	}
	var keys []string
	if objV.Kind == KindObject {
		o := objV.Obj
		if o.IsArray {
			for i := range o.Elems {
				keys = append(keys, NumToString(float64(i)))
			}
		} else {
			keys = append(keys, o.Keys()...)
		}
	}
	for _, k := range keys {
		it.assignIdent(s.Name, s.Addr, Str(k), env)
		c, err := it.execStmt(s.Body, env)
		if err != nil {
			return ctrl{}, err
		}
		switch c.kind {
		case ctrlBreak:
			if c.consumes(label) {
				return ctrl{}, nil
			}
			return c, nil
		case ctrlContinue:
			if !c.consumes(label) {
				return c, nil
			}
		case ctrlReturn:
			return c, nil
		}
	}
	return ctrl{}, nil
}

func (it *Interp) execTry(s *TryStmt, env *Env) (ctrl, error) {
	c, err := it.execStmts(s.Try.Body, env)
	if err != nil && s.Catch != nil {
		var jsErr *Error
		if e, ok := err.(*Error); ok {
			jsErr = e
		} else {
			return ctrl{}, err
		}
		cenv := newEnv(env, &s.CatchScope)
		b := &cenv.slots[s.CatchRef.Slot]
		it.declare(b, s.CatchRef)
		b.Value = errorValue(it, jsErr)
		c, err = it.execStmts(s.Catch.Body, cenv)
	}
	if s.Finally != nil {
		fc, ferr := it.execStmts(s.Finally.Body, env)
		if ferr != nil {
			return ctrl{}, ferr
		}
		if fc.kind != ctrlNormal {
			return fc, nil
		}
	}
	return c, err
}

// errorValue converts a runtime error to the value seen by catch.
func errorValue(it *Interp, e *Error) Value {
	if e.HasThrown {
		return e.Thrown
	}
	o := it.NewObject("Error")
	o.SetProp("name", Str(e.Kind))
	o.SetProp("message", Str(e.Msg))
	o.SetProp("__str__", Str(e.Kind+": "+e.Msg))
	return ObjectVal(o)
}

func (it *Interp) execSwitch(s *SwitchStmt, env *Env) (ctrl, error) {
	v, err := it.evalExpr(s.X, env)
	if err != nil {
		return ctrl{}, err
	}
	matched := -1
	for i, c := range s.Cases {
		if c.Test == nil {
			continue
		}
		tv, err := it.evalExpr(c.Test, env)
		if err != nil {
			return ctrl{}, err
		}
		if StrictEquals(v, tv) {
			matched = i
			break
		}
	}
	if matched < 0 {
		for i, c := range s.Cases {
			if c.Test == nil {
				matched = i
				break
			}
		}
	}
	if matched < 0 {
		return ctrl{}, nil
	}
	for _, c := range s.Cases[matched:] {
		cc, err := it.execStmts(c.Body, env)
		if err != nil {
			return ctrl{}, err
		}
		switch cc.kind {
		case ctrlBreak:
			return ctrl{}, nil
		case ctrlReturn, ctrlContinue:
			return cc, nil
		}
	}
	return ctrl{}, nil
}

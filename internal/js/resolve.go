package js

import "slices"

// resolve performs the static binding analysis:
//
//  1. Hoisting: collect the names declared by `var` and function
//     declarations in each function body (and the top level), per
//     JavaScript's function-scoped declaration semantics and the paper's
//     §4.1 treatment of function declarations as writes at scope entry.
//
//  2. Capture analysis: a binding referenced from a function nested below
//     its declaring function is marked Captured. Captured locals can be
//     shared between operations through closures, so the interpreter
//     instruments their accesses; uncaptured locals are private to a
//     single operation and are not instrumented.
//
//  3. Slot resolution: every function activation and catch block is a
//     run-time scope with one slot per name bound there, and every
//     reference site gets the Addr of the binding it denotes, so the
//     interpreter never looks a local up by name. The walk mirrors the
//     interpreter's scopes exactly, including the `arguments` binding
//     every activation has.
//
// Names that resolve to no enclosing function are Global: they live on the
// window's global scope, which is always shared. Globals stay looked up by
// name, because windows define them at run time.
func resolve(prog *Program) {
	g := &rscope{globals: map[string]*VarRef{}}
	hoist(prog, g, true)
	resolveBody(prog, g)
}

// rscope is one scope during resolution: the global scope, a function body
// scope, or a catch-parameter mini-scope.
type rscope struct {
	parent *rscope
	// globals holds the global scope's bindings, refs those of a function
	// or catch scope, in slot order; a function's implicit `arguments`
	// binding is in neither, because the capture analysis does not see
	// it.
	globals map[string]*VarRef
	refs    []*VarRef
	// free, on the global scope, holds finished local scopes for reuse:
	// only their VarRefs outlive resolution.
	free []*rscope
	// fn is the function of a function-body scope. Walking up past one
	// means the reference site is in a function nested below the binding.
	fn *FuncLit
	// slots counts the slots of a function or catch scope.
	slots int32
}

// openScope returns an empty local scope below parent.
func openScope(parent *rscope, fn *FuncLit) *rscope {
	root := parent
	for root.parent != nil {
		root = root.parent
	}
	if n := len(root.free); n > 0 {
		s := root.free[n-1]
		root.free = root.free[:n-1]
		s.parent, s.fn = parent, fn
		return s
	}
	return &rscope{parent: parent, fn: fn}
}

// closeScope hands the finished local scope s back for reuse.
func closeScope(s *rscope) {
	root := s.parent
	for root.parent != nil {
		root = root.parent
	}
	clear(s.refs)
	*s = rscope{refs: s.refs[:0]}
	root.free = append(root.free, s)
}

// find returns the binding of name declared in s itself.
func (s *rscope) find(name string) (*VarRef, bool) {
	if s.globals != nil {
		r, ok := s.globals[name]
		return r, ok
	}
	for _, r := range s.refs {
		if r.Name == name {
			return r, true
		}
	}
	return nil, false
}

func (s *rscope) declare(name string, global bool) *VarRef {
	if r, ok := s.find(name); ok {
		return r
	}
	r := &VarRef{Name: name, Global: global, Slot: -1}
	if s.globals != nil {
		s.globals[name] = r
	} else {
		r.Slot = s.newSlot()
		s.refs = append(s.refs, r)
	}
	return r
}

func (s *rscope) newSlot() int32 {
	s.slots++
	return s.slots - 1
}

// layout returns the slot names of the local scope s.
func (s *rscope) layout() Scope {
	names := make([]string, s.slots)
	for _, r := range s.refs {
		names[r.Slot] = r.Name
	}
	if s.fn != nil && s.fn.ArgsRef != nil {
		names[s.fn.ArgsRef.Slot] = "arguments"
	}
	return Scope{Names: names}
}

// lookup resolves name from scope s. ref is the binding the capture
// analysis sees, and crossed reports whether the walk passed at least one
// function boundary before finding it, meaning the reference captures the
// binding in a closure. at is the run-time address of the name. It
// differs from ref only for `arguments`, which the capture analysis
// resolves past the function's own arguments object and the interpreter
// does not; lookup marks every function whose arguments object is used.
func (s *rscope) lookup(name string) (ref *VarRef, crossed bool, at Addr) {
	at.Slot = -1
	found := false
	for sc := s; sc != nil; sc = sc.parent {
		r, ok := sc.find(name)
		if !found && sc.globals == nil {
			isArgs := sc.fn != nil && name == "arguments"
			switch {
			case ok:
				at.Slot, found = r.Slot, true
				if isArgs {
					sc.fn.ArgsRef = r
				}
			case isArgs:
				if sc.fn.ArgsRef == nil {
					sc.fn.ArgsRef = &VarRef{Name: name, Slot: sc.newSlot()}
				}
				at.Slot, found = sc.fn.ArgsRef.Slot, true
			default:
				at.Hops++
			}
		}
		if ok {
			return r, crossed, at
		}
		if sc.fn != nil {
			crossed = true
		}
	}
	return nil, false, at
}

// hoist populates prog.Hoisted/FuncDecls and declares the bindings in sc.
func hoist(prog *Program, sc *rscope, global bool) {
	var walk func(s Stmt)
	walkAll := func(stmts []Stmt) {
		for _, s := range stmts {
			walk(s)
		}
	}
	walk = func(s Stmt) {
		switch s := s.(type) {
		case *VarDecl:
			s.Ref = sc.declare(s.Name, global)
			prog.Hoisted = append(prog.Hoisted, s.Ref)
		case *FuncDeclStmt:
			s.Ref = sc.declare(s.Name, global)
			prog.Hoisted = append(prog.Hoisted, s.Ref)
			prog.FuncDecls = append(prog.FuncDecls, s)
		case *BlockStmt:
			walkAll(s.Body)
		case *IfStmt:
			walk(s.Then)
			if s.Else != nil {
				walk(s.Else)
			}
		case *WhileStmt:
			walk(s.Body)
		case *ForStmt:
			if s.Init != nil {
				walk(s.Init)
			}
			walk(s.Body)
		case *ForInStmt:
			s.Ref = sc.declare(s.Name, global)
			prog.Hoisted = append(prog.Hoisted, s.Ref)
			walk(s.Body)
		case *TryStmt:
			walkAll(s.Try.Body)
			if s.Catch != nil {
				walkAll(s.Catch.Body)
			}
			if s.Finally != nil {
				walkAll(s.Finally.Body)
			}
		case *SwitchStmt:
			for _, c := range s.Cases {
				walkAll(c.Body)
			}
		case *LabeledStmt:
			walk(s.Stmt)
		}
	}
	walkAll(prog.Body)
}

// resolveBody resolves all identifier references in a program body whose
// scope is sc.
func resolveBody(prog *Program, sc *rscope) {
	for _, s := range prog.Body {
		resolveStmt(s, sc)
	}
	for _, fd := range prog.FuncDecls {
		resolveFunc(fd.Fn, sc)
	}
}

func resolveStmt(s Stmt, sc *rscope) {
	switch s := s.(type) {
	case *VarDecl:
		_, _, s.Addr = sc.lookup(s.Name)
		if s.Init != nil {
			resolveExpr(s.Init, sc)
		}
	case *FuncDeclStmt:
		// Body handled via prog.FuncDecls in resolveBody.
	case *ExprStmt:
		resolveExpr(s.X, sc)
	case *BlockStmt:
		for _, st := range s.Body {
			resolveStmt(st, sc)
		}
	case *IfStmt:
		resolveExpr(s.Cond, sc)
		resolveStmt(s.Then, sc)
		if s.Else != nil {
			resolveStmt(s.Else, sc)
		}
	case *WhileStmt:
		resolveExpr(s.Cond, sc)
		resolveStmt(s.Body, sc)
	case *ForStmt:
		if s.Init != nil {
			resolveStmt(s.Init, sc)
		}
		if s.Cond != nil {
			resolveExpr(s.Cond, sc)
		}
		if s.Post != nil {
			resolveExpr(s.Post, sc)
		}
		resolveStmt(s.Body, sc)
	case *ForInStmt:
		_, _, s.Addr = sc.lookup(s.Name)
		resolveExpr(s.X, sc)
		resolveStmt(s.Body, sc)
	case *ReturnStmt:
		if s.X != nil {
			resolveExpr(s.X, sc)
		}
	case *ThrowStmt:
		resolveExpr(s.X, sc)
	case *TryStmt:
		resolveStmt(s.Try, sc)
		if s.Catch != nil {
			// The catch parameter gets a mini-scope of its own.
			cs := openScope(sc, nil)
			s.CatchRef = cs.declare(s.CatchVar, false)
			s.CatchScope = Scope{Names: []string{s.CatchVar}}
			// References inside catch resolve through cs, but any
			// function nested in catch must see cs as part of the
			// same function scope; the lookup's crossed-function
			// accounting handles that because cs has no function
			// boundary of its own.
			resolveStmt(s.Catch, cs)
			s.CatchRef.declShared = s.CatchRef.Captured
			closeScope(cs)
		}
		if s.Finally != nil {
			resolveStmt(s.Finally, sc)
		}
	case *SwitchStmt:
		resolveExpr(s.X, sc)
		for _, c := range s.Cases {
			if c.Test != nil {
				resolveExpr(c.Test, sc)
			}
			for _, st := range c.Body {
				resolveStmt(st, sc)
			}
		}
	case *LabeledStmt:
		resolveStmt(s.Stmt, sc)
	case *BreakStmt, *ContinueStmt, *EmptyStmt:
	}
}

func resolveExpr(e Expr, sc *rscope) {
	switch e := e.(type) {
	case *Ident:
		ref, crossed, at := sc.lookup(e.Name)
		e.Addr = at
		if ref == nil {
			ref = &VarRef{Name: e.Name, Global: true, Slot: -1}
			// Intern global refs at the root scope so all
			// references to one global share a VarRef.
			root := sc
			for root.parent != nil {
				root = root.parent
			}
			if r, ok := root.globals[e.Name]; ok {
				ref = r
			} else {
				root.globals[e.Name] = ref
			}
		}
		if crossed && !ref.Global {
			ref.Captured = true
		}
		e.Ref = ref
	case *FuncLit:
		resolveFunc(e, sc)
	case *ArrayLit:
		for _, el := range e.Elems {
			resolveExpr(el, sc)
		}
	case *ObjectLit:
		for _, v := range e.Vals {
			resolveExpr(v, sc)
		}
	case *MemberExpr:
		resolveExpr(e.X, sc)
	case *IndexExpr:
		resolveExpr(e.X, sc)
		resolveExpr(e.Idx, sc)
	case *CallExpr:
		resolveExpr(e.Callee, sc)
		for _, a := range e.Args {
			resolveExpr(a, sc)
		}
	case *AssignExpr:
		resolveExpr(e.Target, sc)
		resolveExpr(e.Value, sc)
	case *UpdateExpr:
		resolveExpr(e.X, sc)
	case *UnaryExpr:
		resolveExpr(e.X, sc)
	case *BinaryExpr:
		resolveExpr(e.L, sc)
		resolveExpr(e.R, sc)
	case *LogicalExpr:
		resolveExpr(e.L, sc)
		resolveExpr(e.R, sc)
	case *CondExpr:
		resolveExpr(e.Cond, sc)
		resolveExpr(e.Then, sc)
		resolveExpr(e.Else, sc)
	case *SeqExpr:
		for _, x := range e.Exprs {
			resolveExpr(x, sc)
		}
	case *NumLit, *StrLit, *BoolLit, *NullLit, *UndefinedLit, *ThisLit:
	}
}

// resolveFunc resolves a function literal: a new scope containing the
// parameters, the named function expression's own name, and the hoisted
// declarations of its body.
func resolveFunc(fn *FuncLit, parent *rscope) {
	sc := openScope(parent, fn)
	if fn.Name != "" {
		// A named function expression can call itself by name; make
		// the name visible inside (harmlessly shadowed if also a
		// declaration binding in the parent).
		fn.SelfRef = sc.declare(fn.Name, false)
	}
	fn.ParamRefs = make([]*VarRef, len(fn.Params))
	for i, p := range fn.Params {
		fn.ParamRefs[i] = sc.declare(p, false)
	}
	hoist(fn.Body, sc, false)
	resolveBody(fn.Body, sc)
	// The capture flags are final now. An activation declares its own
	// name, then the parameters, then `arguments`, then the hoisted
	// names, and the first declaration of a name decides whether its
	// binding is instrumented.
	for _, r := range sc.refs {
		r.declShared = r.Captured && r != fn.SelfRef &&
			(r.Name != "arguments" || slices.Contains(fn.ParamRefs, r))
	}
	fn.Scope = sc.layout()
	closeScope(sc)
}

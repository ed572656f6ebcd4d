package js

import (
	"math"
	"strconv"
	"strings"

	"webracer/internal/mem"
)

// evalExpr evaluates one expression.
func (it *Interp) evalExpr(e Expr, env *Env) (Value, error) {
	if err := it.step(e.line()); err != nil {
		return Undefined, err
	}
	switch e := e.(type) {
	case *NumLit:
		return Number(e.Value), nil
	case *StrLit:
		return Str(e.Value), nil
	case *BoolLit:
		return Boolean(e.Value), nil
	case *NullLit:
		return Null, nil
	case *UndefinedLit:
		return Undefined, nil
	case *ThisLit:
		return it.lookupThis(env), nil
	case *Ident:
		return it.readIdent(e, env, mem.CtxPlain)
	case *FuncLit:
		return it.NewClosure(e, env), nil
	case *ArrayLit:
		arr := it.NewArray()
		for _, el := range e.Elems {
			v, err := it.evalExpr(el, env)
			if err != nil {
				return Undefined, err
			}
			arr.Elems = append(arr.Elems, v)
		}
		return ObjectVal(arr), nil
	case *ObjectLit:
		o := it.NewObject("Object")
		for i, k := range e.Keys {
			v, err := it.evalExpr(e.Vals[i], env)
			if err != nil {
				return Undefined, err
			}
			o.SetProp(k, v)
		}
		return ObjectVal(o), nil
	case *MemberExpr:
		x, err := it.evalExpr(e.X, env)
		if err != nil {
			return Undefined, err
		}
		return it.getMember(x, e.Name, e.Line)
	case *IndexExpr:
		x, err := it.evalExpr(e.X, env)
		if err != nil {
			return Undefined, err
		}
		idx, err := it.evalExpr(e.Idx, env)
		if err != nil {
			return Undefined, err
		}
		return it.getMember(x, indexName(idx), e.Line)
	case *CallExpr:
		return it.evalCall(e, env)
	case *AssignExpr:
		return it.evalAssign(e, env)
	case *UpdateExpr:
		return it.evalUpdate(e, env)
	case *UnaryExpr:
		return it.evalUnary(e, env)
	case *BinaryExpr:
		l, err := it.evalExpr(e.L, env)
		if err != nil {
			return Undefined, err
		}
		r, err := it.evalExpr(e.R, env)
		if err != nil {
			return Undefined, err
		}
		return it.binaryOp(e.Code, l, r, e.Line)
	case *LogicalExpr:
		l, err := it.evalExpr(e.L, env)
		if err != nil {
			return Undefined, err
		}
		if e.Code == pAndAnd {
			if !l.Truthy() {
				return l, nil
			}
		} else if l.Truthy() {
			return l, nil
		}
		return it.evalExpr(e.R, env)
	case *CondExpr:
		c, err := it.evalExpr(e.Cond, env)
		if err != nil {
			return Undefined, err
		}
		if c.Truthy() {
			return it.evalExpr(e.Then, env)
		}
		return it.evalExpr(e.Else, env)
	case *SeqExpr:
		var v Value
		var err error
		for _, x := range e.Exprs {
			v, err = it.evalExpr(x, env)
			if err != nil {
				return Undefined, err
			}
		}
		return v, nil
	default:
		return Undefined, typeError(e.line(), "unsupported expression %T", e)
	}
}

func (it *Interp) thisOrGlobal(this Value) Value {
	if this.IsNullish() {
		return it.GlobalThis
	}
	return this
}

// lookupThis finds the receiver of the innermost function activation.
func (it *Interp) lookupThis(env *Env) Value {
	for e := env; e != nil; e = e.parent {
		if e.hasThis {
			return e.thisVal
		}
	}
	return it.GlobalThis
}

func indexName(idx Value) string {
	if idx.Kind == KindString {
		return idx.Str
	}
	return idx.ToString()
}

// ---- variables ----

// lookupHook, when set, sees every variable lookup: the scope it started
// from, the name and the binding found (nil for an undefined global).
// Tests set it to check the slot path against a name-walking oracle.
var lookupHook func(env *Env, name string, b *Binding)

// lookup finds the binding of the name at address at, as seen from env,
// and the scope holding it.
func (it *Interp) lookup(env *Env, at Addr, name string) (*Binding, *Env) {
	b, defEnv := env.binding(at, name)
	if lookupHook != nil {
		lookupHook(env, name, b)
	}
	return b, defEnv
}

// readIdent reads a variable, instrumenting shared bindings. ctx lets a
// call site mark the read as a function invocation (CtxFuncCall, §2.4).
func (it *Interp) readIdent(id *Ident, env *Env, ctx mem.Context) (Value, error) {
	b, defEnv := it.lookup(env, id.Addr, id.Name)
	if b == nil {
		// Undeclared: a global read. Instrument before throwing — the
		// failed lookup is exactly the racing read of a function race
		// that lost (Fig. 4).
		it.access(mem.Read, mem.VarLoc(it.global.GlobalSerial, id.Name), ctx, id.Name)
		return Undefined, refError(id.Line, id.Name)
	}
	if instrumented(b, defEnv) {
		it.access(mem.Read, bindingLoc(b, defEnv, id.Name), ctx, id.Name)
	}
	return b.Value, nil
}

// assignIdent writes the variable name at address at (var initializer,
// for-in binding or plain assignment). Assigning an undeclared name
// creates a global. A function value written here is a plain write
// (CtxPlain): only declarations are hoisted writes (§4.1).
func (it *Interp) assignIdent(name string, at Addr, v Value, env *Env) {
	b, defEnv := it.lookup(env, at, name)
	if b == nil {
		b = defEnv.declareGlobal(name)
	}
	if instrumented(b, defEnv) {
		it.access(mem.Write, bindingLoc(b, defEnv, name), mem.CtxPlain, name)
	}
	b.Value = v
}

// ---- member access ----

// getMember reads x.name with instrumentation and host dispatch.
func (it *Interp) getMember(x Value, name string, line int) (Value, error) {
	switch x.Kind {
	case KindUndefined, KindNull:
		return Undefined, typeError(line, "cannot read property %q of %s", name, x.ToString())
	case KindString:
		return it.stringMember(x.Str, name, line)
	case KindNumber, KindBool:
		v := x
		switch name {
		case "toString":
			return it.NativeFunc("toString", func(_ *Interp, _ Value, _ []Value) (Value, error) {
				return Str(v.ToString()), nil
			}), nil
		case "toFixed":
			return it.NativeFunc("toFixed", func(_ *Interp, _ Value, args []Value) (Value, error) {
				digits := 0
				if len(args) > 0 {
					digits = int(args[0].ToNumber())
				}
				if digits < 0 || digits > 100 {
					return Undefined, &Error{Kind: "RangeError", Msg: "toFixed digits out of range", Line: line}
				}
				return Str(toFixed(v.ToNumber(), digits)), nil
			}), nil
		}
		return Undefined, nil
	}
	o := x.Obj
	if o.Host != nil {
		v, handled, err := o.Host.HostGet(it, name)
		if handled || err != nil {
			return v, err
		}
	}
	if o.IsArray {
		if v, handled := it.arrayMember(o, name, line); handled {
			return v, nil
		}
	}
	if o.Fn != nil {
		if v, handled := it.functionMember(o, name, line); handled {
			return v, nil
		}
	}
	it.access(mem.Read, mem.VarLoc(o.Serial, name), mem.CtxPlain, "."+name)
	v, _ := o.GetProp(name)
	return v, nil
}

// toFixed matches JavaScript's Number.prototype.toFixed for the common
// range: ties round away from zero (2.5.toFixed(0) is "3"), unlike Go's
// half-even formatter.
func toFixed(v float64, digits int) string {
	if math.IsNaN(v) {
		return "NaN"
	}
	if math.IsInf(v, 0) || math.Abs(v) >= 1e21 {
		return NumToString(v)
	}
	shift := math.Pow(10, float64(digits))
	scaled := v * shift
	var rounded float64
	if scaled >= 0 {
		rounded = math.Floor(scaled + 0.5)
	} else {
		rounded = math.Ceil(scaled - 0.5)
	}
	return strconv.FormatFloat(rounded/shift, 'f', digits, 64)
}

// functionMember implements Function.prototype.call/apply/bind for function
// objects (only when the page has not shadowed them with own properties).
func (it *Interp) functionMember(o *Object, name string, line int) (Value, bool) {
	if _, shadowed := o.GetProp(name); shadowed {
		return Undefined, false
	}
	fn := o.Fn
	switch name {
	case "call":
		return it.NativeFunc("call", func(it *Interp, _ Value, args []Value) (Value, error) {
			this := Undefined
			if len(args) > 0 {
				this = args[0]
				args = args[1:]
			}
			return it.call(fn, this, args, line)
		}), true
	case "apply":
		return it.NativeFunc("apply", func(it *Interp, _ Value, args []Value) (Value, error) {
			this := Undefined
			var rest []Value
			if len(args) > 0 {
				this = args[0]
			}
			if len(args) > 1 && args[1].Kind == KindObject && args[1].Obj.IsArray {
				rest = args[1].Obj.Elems
			}
			return it.call(fn, this, rest, line)
		}), true
	case "bind":
		return it.NativeFunc("bind", func(it *Interp, _ Value, args []Value) (Value, error) {
			boundThis := Undefined
			if len(args) > 0 {
				boundThis = args[0]
			}
			bound := append([]Value(nil), args[1:]...)
			return it.NativeFunc(fn.Name+" (bound)", func(it *Interp, _ Value, callArgs []Value) (Value, error) {
				return it.call(fn, boundThis, append(append([]Value(nil), bound...), callArgs...), line)
			}), nil
		}), true
	case "name":
		return Str(fn.Name), true
	case "length":
		if fn.Decl != nil {
			return Number(float64(len(fn.Decl.Params))), true
		}
		return Number(0), true
	default:
		return Undefined, false
	}
}

// setMember writes x.name with instrumentation and host dispatch.
func (it *Interp) setMember(x Value, name string, v Value, line int) error {
	switch x.Kind {
	case KindUndefined, KindNull:
		return typeError(line, "cannot set property %q of %s", name, x.ToString())
	case KindString, KindNumber, KindBool:
		return nil // silently ignored, as in sloppy-mode JS
	}
	o := x.Obj
	if o.Host != nil {
		handled, err := o.Host.HostSet(it, name, v)
		if handled || err != nil {
			return err
		}
	}
	if o.IsArray {
		if i, ok := arrayIndex(name); ok {
			for len(o.Elems) <= i {
				o.Elems = append(o.Elems, Undefined)
			}
			it.access(mem.Write, mem.VarLoc(o.Serial, name), mem.CtxPlain, "[i]")
			o.Elems[i] = v
			return nil
		}
		if name == "length" {
			n := int(v.ToNumber())
			if n < 0 {
				n = 0
			}
			for len(o.Elems) > n {
				o.Elems = o.Elems[:len(o.Elems)-1]
			}
			for len(o.Elems) < n {
				o.Elems = append(o.Elems, Undefined)
			}
			return nil
		}
	}
	it.access(mem.Write, mem.VarLoc(o.Serial, name), mem.CtxPlain, "."+name)
	o.SetProp(name, v)
	return nil
}

func arrayIndex(name string) (int, bool) {
	if name == "" {
		return 0, false
	}
	n := 0
	for i := 0; i < len(name); i++ {
		c := name[i]
		if c < '0' || c > '9' {
			return 0, false
		}
		n = n*10 + int(c-'0')
		if n > 1<<30 {
			return 0, false
		}
	}
	return n, true
}

func (it *Interp) arrayMember(o *Object, name string, line int) (Value, bool) {
	if i, ok := arrayIndex(name); ok {
		it.access(mem.Read, mem.VarLoc(o.Serial, name), mem.CtxPlain, "[i]")
		if i < len(o.Elems) {
			return o.Elems[i], true
		}
		return Undefined, true
	}
	switch name {
	case "length":
		return Number(float64(len(o.Elems))), true
	case "push":
		return it.NativeFunc("push", func(it *Interp, this Value, args []Value) (Value, error) {
			for i := range args {
				it.access(mem.Write, mem.VarLoc(o.Serial, NumToString(float64(len(o.Elems)+i))), mem.CtxPlain, "push")
			}
			o.Elems = append(o.Elems, args...)
			return Number(float64(len(o.Elems))), nil
		}), true
	case "pop":
		return it.NativeFunc("pop", func(it *Interp, this Value, args []Value) (Value, error) {
			if len(o.Elems) == 0 {
				return Undefined, nil
			}
			last := o.Elems[len(o.Elems)-1]
			it.access(mem.Read, mem.VarLoc(o.Serial, NumToString(float64(len(o.Elems)-1))), mem.CtxPlain, "pop")
			o.Elems = o.Elems[:len(o.Elems)-1]
			return last, nil
		}), true
	case "shift":
		return it.NativeFunc("shift", func(it *Interp, this Value, args []Value) (Value, error) {
			if len(o.Elems) == 0 {
				return Undefined, nil
			}
			first := o.Elems[0]
			o.Elems = o.Elems[1:]
			return first, nil
		}), true
	case "indexOf":
		return it.NativeFunc("indexOf", func(it *Interp, this Value, args []Value) (Value, error) {
			if len(args) == 0 {
				return Number(-1), nil
			}
			for i, e := range o.Elems {
				if StrictEquals(e, args[0]) {
					return Number(float64(i)), nil
				}
			}
			return Number(-1), nil
		}), true
	case "join":
		return it.NativeFunc("join", func(it *Interp, this Value, args []Value) (Value, error) {
			sep := ","
			if len(args) > 0 {
				sep = args[0].ToString()
			}
			parts := make([]string, len(o.Elems))
			for i, e := range o.Elems {
				if !e.IsNullish() {
					parts[i] = e.ToString()
				}
			}
			return Str(strings.Join(parts, sep)), nil
		}), true
	case "slice":
		return it.NativeFunc("slice", func(it *Interp, this Value, args []Value) (Value, error) {
			start, end := sliceBounds(len(o.Elems), args)
			return ObjectVal(it.NewArray(o.Elems[start:end]...)), nil
		}), true
	case "concat":
		return it.NativeFunc("concat", func(it *Interp, this Value, args []Value) (Value, error) {
			out := it.NewArray(o.Elems...)
			for _, a := range args {
				if a.Kind == KindObject && a.Obj.IsArray {
					out.Elems = append(out.Elems, a.Obj.Elems...)
				} else {
					out.Elems = append(out.Elems, a)
				}
			}
			return ObjectVal(out), nil
		}), true
	case "forEach":
		return it.NativeFunc("forEach", func(it *Interp, this Value, args []Value) (Value, error) {
			if len(args) == 0 || !args[0].IsCallable() {
				return Undefined, typeError(line, "forEach requires a function")
			}
			for i, e := range o.Elems {
				if _, err := it.call(args[0].Obj.Fn, Undefined, []Value{e, Number(float64(i))}, line); err != nil {
					return Undefined, err
				}
			}
			return Undefined, nil
		}), true
	case "map":
		return it.NativeFunc("map", func(it *Interp, this Value, args []Value) (Value, error) {
			if len(args) == 0 || !args[0].IsCallable() {
				return Undefined, typeError(line, "map requires a function")
			}
			out := it.NewArray()
			for i, e := range o.Elems {
				v, err := it.call(args[0].Obj.Fn, Undefined, []Value{e, Number(float64(i))}, line)
				if err != nil {
					return Undefined, err
				}
				out.Elems = append(out.Elems, v)
			}
			return ObjectVal(out), nil
		}), true
	case "filter":
		return it.NativeFunc("filter", func(it *Interp, this Value, args []Value) (Value, error) {
			if len(args) == 0 || !args[0].IsCallable() {
				return Undefined, typeError(line, "filter requires a function")
			}
			out := it.NewArray()
			for i, e := range o.Elems {
				v, err := it.call(args[0].Obj.Fn, Undefined, []Value{e, Number(float64(i))}, line)
				if err != nil {
					return Undefined, err
				}
				if v.Truthy() {
					out.Elems = append(out.Elems, e)
				}
			}
			return ObjectVal(out), nil
		}), true
	case "reverse":
		return it.NativeFunc("reverse", func(it *Interp, this Value, args []Value) (Value, error) {
			for i, j := 0, len(o.Elems)-1; i < j; i, j = i+1, j-1 {
				o.Elems[i], o.Elems[j] = o.Elems[j], o.Elems[i]
			}
			return ObjectVal(o), nil
		}), true
	case "sort":
		return it.NativeFunc("sort", func(it *Interp, this Value, args []Value) (Value, error) {
			var sortErr error
			less := func(a, b Value) bool { return a.ToString() < b.ToString() }
			if len(args) > 0 && args[0].IsCallable() {
				cmp := args[0].Obj.Fn
				less = func(a, b Value) bool {
					if sortErr != nil {
						return false
					}
					v, err := it.call(cmp, Undefined, []Value{a, b}, line)
					if err != nil {
						sortErr = err
						return false
					}
					return v.ToNumber() < 0
				}
			}
			insertionSort(o.Elems, less)
			if sortErr != nil {
				return Undefined, sortErr
			}
			return ObjectVal(o), nil
		}), true
	case "splice":
		return it.NativeFunc("splice", func(it *Interp, this Value, args []Value) (Value, error) {
			start := 0
			if len(args) > 0 {
				start = clampIndex(int(args[0].ToNumber()), len(o.Elems))
			}
			count := len(o.Elems) - start
			if len(args) > 1 {
				count = int(args[1].ToNumber())
				if count < 0 {
					count = 0
				}
				if start+count > len(o.Elems) {
					count = len(o.Elems) - start
				}
			}
			removed := it.NewArray(o.Elems[start : start+count]...)
			tail := append([]Value{}, o.Elems[start+count:]...)
			o.Elems = o.Elems[:start]
			if len(args) > 2 {
				o.Elems = append(o.Elems, args[2:]...)
			}
			o.Elems = append(o.Elems, tail...)
			return ObjectVal(removed), nil
		}), true
	case "unshift":
		return it.NativeFunc("unshift", func(it *Interp, this Value, args []Value) (Value, error) {
			o.Elems = append(append([]Value{}, args...), o.Elems...)
			return Number(float64(len(o.Elems))), nil
		}), true
	}
	return Undefined, false
}

// insertionSort is a small stable sort; comparator errors abort via the
// captured sortErr (JS sort order with a throwing comparator is undefined
// anyway).
func insertionSort(a []Value, less func(x, y Value) bool) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && less(a[j], a[j-1]); j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}

func sliceBounds(n int, args []Value) (int, int) {
	start, end := 0, n
	if len(args) > 0 {
		start = clampIndex(int(args[0].ToNumber()), n)
	}
	if len(args) > 1 {
		end = clampIndex(int(args[1].ToNumber()), n)
	}
	if end < start {
		end = start
	}
	return start, end
}

func clampIndex(i, n int) int {
	if i < 0 {
		i += n
	}
	if i < 0 {
		return 0
	}
	if i > n {
		return n
	}
	return i
}

// ---- assignment, update, unary, binary ----

func (it *Interp) evalAssign(e *AssignExpr, env *Env) (Value, error) {
	// Compound assignment reads the target first.
	var cur Value
	if e.Code != pAssign {
		var err error
		cur, err = it.evalExpr(e.Target, env)
		if err != nil {
			return Undefined, err
		}
	}
	rhs, err := it.evalExpr(e.Value, env)
	if err != nil {
		return Undefined, err
	}
	v := rhs
	if e.Code != pAssign {
		v, err = it.binaryOp(e.Code, cur, rhs, e.Line)
		if err != nil {
			return Undefined, err
		}
	}
	switch t := e.Target.(type) {
	case *Ident:
		it.assignIdent(t.Name, t.Addr, v, env)
		return v, nil
	case *MemberExpr:
		x, err := it.evalExpr(t.X, env)
		if err != nil {
			return Undefined, err
		}
		return v, it.setMember(x, t.Name, v, e.Line)
	case *IndexExpr:
		x, err := it.evalExpr(t.X, env)
		if err != nil {
			return Undefined, err
		}
		idx, err := it.evalExpr(t.Idx, env)
		if err != nil {
			return Undefined, err
		}
		return v, it.setMember(x, indexName(idx), v, e.Line)
	default:
		return Undefined, typeError(e.Line, "invalid assignment target")
	}
}

func (it *Interp) evalUpdate(e *UpdateExpr, env *Env) (Value, error) {
	old, err := it.evalExpr(e.X, env)
	if err != nil {
		return Undefined, err
	}
	n := old.ToNumber()
	var nv float64
	if e.Code == pInc {
		nv = n + 1
	} else {
		nv = n - 1
	}
	newV := Number(nv)
	switch t := e.X.(type) {
	case *Ident:
		it.assignIdent(t.Name, t.Addr, newV, env)
	case *MemberExpr:
		var x Value
		x, err = it.evalExpr(t.X, env)
		if err == nil {
			err = it.setMember(x, t.Name, newV, e.Line)
		}
	case *IndexExpr:
		var x, idx Value
		x, err = it.evalExpr(t.X, env)
		if err == nil {
			idx, err = it.evalExpr(t.Idx, env)
		}
		if err == nil {
			err = it.setMember(x, indexName(idx), newV, e.Line)
		}
	default:
		return Undefined, typeError(e.Line, "invalid update target")
	}
	if err != nil {
		return Undefined, err
	}
	if e.Prefix {
		return newV, nil
	}
	return Number(n), nil
}

func (it *Interp) evalUnary(e *UnaryExpr, env *Env) (Value, error) {
	// typeof on an unresolved identifier must not throw.
	if e.Code == kTypeof {
		if id, ok := e.X.(*Ident); ok {
			b, defEnv := it.lookup(env, id.Addr, id.Name)
			if b == nil {
				it.access(mem.Read, mem.VarLoc(it.global.GlobalSerial, id.Name), mem.CtxPlain, id.Name)
				return Str("undefined"), nil
			}
			if instrumented(b, defEnv) {
				it.access(mem.Read, bindingLoc(b, defEnv, id.Name), mem.CtxPlain, id.Name)
			}
			return Str(b.Value.TypeOf()), nil
		}
	}
	if e.Code == kDelete {
		switch t := e.X.(type) {
		case *MemberExpr:
			x, err := it.evalExpr(t.X, env)
			if err != nil {
				return Undefined, err
			}
			return True, it.deleteMember(x, t.Name, e.Line)
		case *IndexExpr:
			x, err := it.evalExpr(t.X, env)
			if err != nil {
				return Undefined, err
			}
			idx, err := it.evalExpr(t.Idx, env)
			if err != nil {
				return Undefined, err
			}
			return True, it.deleteMember(x, indexName(idx), e.Line)
		default:
			return False, nil
		}
	}
	v, err := it.evalExpr(e.X, env)
	if err != nil {
		return Undefined, err
	}
	switch e.Code {
	case pNot:
		return Boolean(!v.Truthy()), nil
	case pSub:
		return Number(-v.ToNumber()), nil
	case pAdd:
		return Number(v.ToNumber()), nil
	case pTilde:
		return Number(float64(^toInt32(v.ToNumber()))), nil
	case kTypeof:
		return Str(v.TypeOf()), nil
	case kVoid:
		return Undefined, nil
	default:
		return Undefined, typeError(e.Line, "unsupported unary operator %q", e.Op)
	}
}

func (it *Interp) deleteMember(x Value, name string, line int) error {
	if x.Kind != KindObject {
		return nil
	}
	o := x.Obj
	if o.IsArray {
		if i, ok := arrayIndex(name); ok && i < len(o.Elems) {
			it.access(mem.Write, mem.VarLoc(o.Serial, name), mem.CtxPlain, "delete")
			o.Elems[i] = Undefined
			return nil
		}
	}
	if _, ok := o.GetProp(name); ok {
		it.access(mem.Write, mem.VarLoc(o.Serial, name), mem.CtxPlain, "delete")
		o.DeleteProp(name)
	}
	return nil
}

func toInt32(f float64) int32 {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return 0
	}
	return int32(int64(f))
}

func toUint32(f float64) uint32 {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return 0
	}
	return uint32(int64(f))
}

func (it *Interp) binaryOp(op Code, l, r Value, line int) (Value, error) {
	switch op {
	case pAdd:
		// Objects convert via ToString (arrays join, dates stamp), so
		// any string or object operand makes + concatenate; this skips
		// the full ToPrimitive dance but matches the common cases.
		if l.Kind == KindString || r.Kind == KindString ||
			l.Kind == KindObject || r.Kind == KindObject {
			return Str(l.ToString() + r.ToString()), nil
		}
		return Number(l.ToNumber() + r.ToNumber()), nil
	case pSub:
		return Number(l.ToNumber() - r.ToNumber()), nil
	case pMul:
		return Number(l.ToNumber() * r.ToNumber()), nil
	case pDiv:
		return Number(l.ToNumber() / r.ToNumber()), nil
	case pMod:
		return Number(math.Mod(l.ToNumber(), r.ToNumber())), nil
	case pEq:
		return Boolean(LooseEquals(l, r)), nil
	case pNe:
		return Boolean(!LooseEquals(l, r)), nil
	case pStrictEq:
		return Boolean(StrictEquals(l, r)), nil
	case pStrictNe:
		return Boolean(!StrictEquals(l, r)), nil
	case pLt, pGt, pLe, pGe:
		return relational(op, l, r), nil
	case pAnd:
		return Number(float64(toInt32(l.ToNumber()) & toInt32(r.ToNumber()))), nil
	case pOr:
		return Number(float64(toInt32(l.ToNumber()) | toInt32(r.ToNumber()))), nil
	case pXor:
		return Number(float64(toInt32(l.ToNumber()) ^ toInt32(r.ToNumber()))), nil
	case pShl:
		return Number(float64(toInt32(l.ToNumber()) << (toUint32(r.ToNumber()) & 31))), nil
	case pShr:
		return Number(float64(toInt32(l.ToNumber()) >> (toUint32(r.ToNumber()) & 31))), nil
	case pUshr:
		return Number(float64(toUint32(l.ToNumber()) >> (toUint32(r.ToNumber()) & 31))), nil
	case kIn:
		if r.Kind != KindObject {
			return Undefined, typeError(line, "'in' requires an object")
		}
		if r.Obj.IsArray {
			i, ok := arrayIndex(l.ToString())
			return Boolean(ok && i < len(r.Obj.Elems)), nil
		}
		_, ok := r.Obj.GetProp(l.ToString())
		return Boolean(ok), nil
	case kInstanceof:
		if r.Kind != KindObject || r.Obj.Fn == nil || l.Kind != KindObject {
			return False, nil
		}
		return Boolean(l.Obj.Class == r.Obj.Fn.Name), nil
	default:
		return Undefined, typeError(line, "unsupported operator %q", op)
	}
}

func relational(op Code, l, r Value) Value {
	if l.Kind == KindString && r.Kind == KindString {
		switch op {
		case pLt:
			return Boolean(l.Str < r.Str)
		case pGt:
			return Boolean(l.Str > r.Str)
		case pLe:
			return Boolean(l.Str <= r.Str)
		default:
			return Boolean(l.Str >= r.Str)
		}
	}
	a, b := l.ToNumber(), r.ToNumber()
	if math.IsNaN(a) || math.IsNaN(b) {
		return False
	}
	switch op {
	case pLt:
		return Boolean(a < b)
	case pGt:
		return Boolean(a > b)
	case pLe:
		return Boolean(a <= b)
	default:
		return Boolean(a >= b)
	}
}

// ---- calls ----

func (it *Interp) evalCall(e *CallExpr, env *Env) (Value, error) {
	var fnV, this Value
	var err error
	calleeName := "expression"
	switch callee := e.Callee.(type) {
	case *Ident:
		calleeName = callee.Name
		// The read performed to invoke the function: CtxFuncCall so a
		// race with the declaration classifies as a function race.
		fnV, err = it.readIdent(callee, env, mem.CtxFuncCall)
	case *MemberExpr:
		calleeName = callee.Name
		var x Value
		x, err = it.evalExpr(callee.X, env)
		if err == nil {
			this = x
			fnV, err = it.getMember(x, callee.Name, e.Line)
		}
	case *IndexExpr:
		var x, idx Value
		x, err = it.evalExpr(callee.X, env)
		if err == nil {
			idx, err = it.evalExpr(callee.Idx, env)
		}
		if err == nil {
			this = x
			fnV, err = it.getMember(x, indexName(idx), e.Line)
		}
	default:
		fnV, err = it.evalExpr(callee, env)
	}
	if err != nil {
		return Undefined, err
	}
	args := make([]Value, len(e.Args))
	for i, a := range e.Args {
		args[i], err = it.evalExpr(a, env)
		if err != nil {
			return Undefined, err
		}
	}
	if !fnV.IsCallable() {
		return Undefined, typeError(e.Line, "%s is not a function", calleeName)
	}
	if e.IsNew {
		return it.construct(fnV.Obj.Fn, args, e.Line)
	}
	return it.call(fnV.Obj.Fn, this, args, e.Line)
}

// construct implements `new F(args)`.
func (it *Interp) construct(fn *Closure, args []Value, line int) (Value, error) {
	obj := it.NewObject(constructClass(fn))
	ret, err := it.call(fn, ObjectVal(obj), args, line)
	if err != nil {
		return Undefined, err
	}
	if ret.Kind == KindObject {
		return ret, nil
	}
	return ObjectVal(obj), nil
}

func constructClass(fn *Closure) string {
	if fn.Name != "" {
		return fn.Name
	}
	return "Object"
}

// call invokes a closure with the given receiver.
func (it *Interp) call(fn *Closure, this Value, args []Value, line int) (Value, error) {
	it.depth++
	defer func() { it.depth-- }()
	if it.depth > maxDepth {
		return Undefined, &Error{Kind: "RangeError", Msg: "maximum call stack size exceeded", Line: line}
	}
	if fn.Native != nil {
		return fn.Native(it, this, args)
	}
	decl := fn.Decl
	env := newEnv(fn.Env, &decl.Scope)
	env.BindThis(it.thisOrGlobal(this))
	// The activation declares, in order: the function's own name (so a
	// named function expression can refer to itself), the parameters,
	// `arguments` and the hoisted names. A name declared twice keeps
	// its first binding.
	if decl.SelfRef != nil {
		env.slots[decl.SelfRef.Slot].Value = ObjectVal(fn.Self)
	}
	for i, ref := range decl.ParamRefs {
		b := &env.slots[ref.Slot]
		it.declare(b, ref)
		if i < len(args) {
			b.Value = args[i]
		}
	}
	// The arguments object is a read-only snapshot, built only when the
	// body reads it; its serial is drawn either way.
	if decl.ArgsRef != nil {
		env.slots[decl.ArgsRef.Slot].Value = ObjectVal(it.NewArray(args...))
	} else {
		it.nextSerial()
	}
	it.hoistInto(decl.Body, env)
	c, err := it.execStmts(decl.Body.Body, env)
	if err != nil {
		return Undefined, err
	}
	if c.kind == ctrlReturn {
		return c.val, nil
	}
	return Undefined, nil
}

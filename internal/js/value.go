package js

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Kind tags a runtime value.
type Kind uint8

const (
	KindUndefined Kind = iota
	KindNull
	KindBool
	KindNumber
	KindString
	KindObject
)

// Value is one JavaScript value. Functions and arrays are objects.
type Value struct {
	Kind Kind
	Bool bool
	Num  float64
	Str  string
	Obj  *Object
}

// Convenience constructors.
var (
	Undefined = Value{Kind: KindUndefined}
	Null      = Value{Kind: KindNull}
	True      = Value{Kind: KindBool, Bool: true}
	False     = Value{Kind: KindBool, Bool: false}
)

// Boolean returns a bool value.
func Boolean(b bool) Value { return Value{Kind: KindBool, Bool: b} }

// Number returns a number value.
func Number(f float64) Value { return Value{Kind: KindNumber, Num: f} }

// String returns a string value.
func Str(s string) Value { return Value{Kind: KindString, Str: s} }

// ObjectVal wraps an object.
func ObjectVal(o *Object) Value { return Value{Kind: KindObject, Obj: o} }

// IsCallable reports whether v can be invoked.
func (v Value) IsCallable() bool { return v.Kind == KindObject && v.Obj != nil && v.Obj.Fn != nil }

// IsNullish reports null or undefined.
func (v Value) IsNullish() bool { return v.Kind == KindUndefined || v.Kind == KindNull }

// Truthy implements ToBoolean.
func (v Value) Truthy() bool {
	switch v.Kind {
	case KindUndefined, KindNull:
		return false
	case KindBool:
		return v.Bool
	case KindNumber:
		return v.Num != 0 && !math.IsNaN(v.Num)
	case KindString:
		return v.Str != ""
	default:
		return true
	}
}

// TypeOf implements the typeof operator.
func (v Value) TypeOf() string {
	switch v.Kind {
	case KindUndefined:
		return "undefined"
	case KindNull:
		return "object"
	case KindBool:
		return "boolean"
	case KindNumber:
		return "number"
	case KindString:
		return "string"
	default:
		if v.IsCallable() {
			return "function"
		}
		return "object"
	}
}

// ToNumber implements ToNumber (objects convert via their string form).
func (v Value) ToNumber() float64 {
	switch v.Kind {
	case KindUndefined:
		return math.NaN()
	case KindNull:
		return 0
	case KindBool:
		if v.Bool {
			return 1
		}
		return 0
	case KindNumber:
		return v.Num
	case KindString:
		s := strings.TrimSpace(v.Str)
		if s == "" {
			return 0
		}
		f, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return math.NaN()
		}
		return f
	default:
		return Str(v.ToString()).ToNumber()
	}
}

// ToString implements ToString.
func (v Value) ToString() string {
	switch v.Kind {
	case KindUndefined:
		return "undefined"
	case KindNull:
		return "null"
	case KindBool:
		if v.Bool {
			return "true"
		}
		return "false"
	case KindNumber:
		return NumToString(v.Num)
	case KindString:
		return v.Str
	default:
		return v.Obj.toString()
	}
}

// NumToString renders a number the way JavaScript does for the common
// cases: integral values print without a decimal point.
func NumToString(f float64) string {
	switch {
	case math.IsNaN(f):
		return "NaN"
	case math.IsInf(f, 1):
		return "Infinity"
	case math.IsInf(f, -1):
		return "-Infinity"
	case f == math.Trunc(f) && math.Abs(f) < 1e21:
		return strconv.FormatFloat(f, 'f', -1, 64)
	default:
		return strconv.FormatFloat(f, 'g', -1, 64)
	}
}

// StrictEquals implements ===.
func StrictEquals(a, b Value) bool {
	if a.Kind != b.Kind {
		return false
	}
	switch a.Kind {
	case KindUndefined, KindNull:
		return true
	case KindBool:
		return a.Bool == b.Bool
	case KindNumber:
		return a.Num == b.Num // NaN != NaN falls out
	case KindString:
		return a.Str == b.Str
	default:
		return a.Obj == b.Obj
	}
}

// LooseEquals implements == for the cases our subset needs: same-type
// comparison, null/undefined equivalence, and number/string/bool coercion.
func LooseEquals(a, b Value) bool {
	if a.Kind == b.Kind {
		return StrictEquals(a, b)
	}
	if a.IsNullish() && b.IsNullish() {
		return true
	}
	if a.IsNullish() || b.IsNullish() {
		return false
	}
	if a.Kind == KindObject || b.Kind == KindObject {
		// Object compared to primitive: compare via string form.
		return a.ToString() == b.ToString() || a.ToNumber() == b.ToNumber()
	}
	return a.ToNumber() == b.ToNumber()
}

// HostObject lets the browser give an object live behavior (DOM nodes,
// window, document, XHR). HostGet/HostSet return false to fall through to
// ordinary property storage.
type HostObject interface {
	HostGet(it *Interp, name string) (Value, bool, error)
	HostSet(it *Interp, name string, v Value) (bool, error)
}

// Object is a JavaScript object: plain object, array, function or host
// wrapper.
type Object struct {
	Serial  uint64
	Class   string           // "Object", "Array", "Function", or a host class
	Props   map[string]Value // nil until the first SetProp
	keys    []string         // insertion order of Props
	Elems   []Value          // array storage
	IsArray bool
	Fn      *Closure
	Host    HostObject
}

// SetProp stores a property without instrumentation (callers instrument).
// An object gets its property map with its first property.
func (o *Object) SetProp(name string, v Value) {
	if o.Props == nil {
		o.Props = make(map[string]Value)
	}
	if _, ok := o.Props[name]; !ok {
		o.keys = append(o.keys, name)
	}
	o.Props[name] = v
}

// GetProp loads a property without instrumentation. A reserved method
// is built on its first read.
func (o *Object) GetProp(name string) (Value, bool) {
	v, ok := o.Props[name]
	if v.Kind == kindReserved {
		v = o.buildMethod(name, v)
	}
	return v, ok
}

// DeleteProp removes a property.
func (o *Object) DeleteProp(name string) {
	if _, ok := o.Props[name]; ok {
		delete(o.Props, name)
		for i, k := range o.keys {
			if k == name {
				o.keys = append(o.keys[:i:i], o.keys[i+1:]...)
				break
			}
		}
	}
}

// Keys returns property names in insertion order (for-in order).
func (o *Object) Keys() []string { return o.keys }

func (o *Object) toString() string {
	switch {
	case o.IsArray:
		parts := make([]string, len(o.Elems))
		for i, e := range o.Elems {
			if e.IsNullish() {
				parts[i] = ""
			} else {
				parts[i] = e.ToString()
			}
		}
		return strings.Join(parts, ",")
	case o.Fn != nil:
		name := o.Fn.Name
		if name == "" {
			name = "anonymous"
		}
		return fmt.Sprintf("function %s() { [source] }", name)
	default:
		if s, ok := o.Props["__str__"]; ok {
			return s.ToString()
		}
		return "[object " + o.Class + "]"
	}
}

// NativeFn is a Go-implemented function. this is the receiver (Undefined
// for plain calls) and args the evaluated arguments.
type NativeFn func(it *Interp, this Value, args []Value) (Value, error)

// Closure is the callable payload of a function object.
type Closure struct {
	// Serial is the function identity, used as the h component of event
	// handler locations (el, e, h).
	Serial uint64
	Name   string
	Decl   *FuncLit
	Env    *Env
	Native NativeFn
	// Self is the function object carrying this closure (so a named
	// function expression can bind its own name).
	Self *Object
}

// Env is a runtime scope: the global scope, one function activation or
// one catch block. A function or catch scope holds its bindings in slots
// laid out at parse time (see Scope and Addr); only the global scope maps
// names, because windows define globals at run time.
type Env struct {
	parent *Env
	slots  []Binding
	scope  *Scope              // slot names; nil for the global scope
	vars   map[string]*Binding // the global scope's bindings
	realm  *realm              // the global scope's reserved builtins
	// GlobalSerial is non-zero on the global env: the identity used for
	// global variable locations.
	GlobalSerial uint64
	// thisVal/hasThis carry the receiver of a function activation.
	thisVal Value
	hasThis bool
}

// BindThis sets the receiver visible to `this` inside this scope.
func (e *Env) BindThis(v Value) {
	e.thisVal = v
	e.hasThis = true
}

// Binding is one variable. A captured local carries a non-zero Serial,
// the identity its memory location is named by; only those locals are
// instrumented.
type Binding struct {
	Value  Value
	Serial uint64
}

// newEnv returns a child scope of parent laid out as scope, every slot
// undefined.
func newEnv(parent *Env, scope *Scope) *Env {
	return &Env{parent: parent, slots: make([]Binding, len(scope.Names)), scope: scope}
}

// IsGlobal reports whether e is a global scope.
func (e *Env) IsGlobal() bool { return e.GlobalSerial != 0 }

// binding finds the binding at address at from e and the scope holding
// it. A global that is not defined yet comes back nil, with the root.
func (e *Env) binding(at Addr, name string) (*Binding, *Env) {
	for h := at.Hops; h > 0; h-- {
		e = e.parent
	}
	if at.Slot >= 0 {
		return &e.slots[at.Slot], e
	}
	return e.global(name), e
}

// global returns the global binding name of the global scope e, building
// it if it is a reserved builtin; nil if name is not defined.
func (e *Env) global(name string) *Binding {
	if b, ok := e.vars[name]; ok {
		return b
	}
	return e.reservedGlobal(name)
}

// declareGlobal creates (or returns the existing) global binding name in
// the global scope e.
func (e *Env) declareGlobal(name string) *Binding {
	if b := e.global(name); b != nil {
		return b
	}
	b := &Binding{}
	e.vars[name] = b
	return b
}

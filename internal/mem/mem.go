// Package mem defines the logical memory locations of §4 of "Race Detection
// for Web Applications" (PLDI 2012) and the access records the race
// detector consumes.
//
// The web platform has no natural machine-level notion of a memory access —
// operations touch both JavaScript heap locations and browser-internal data
// structures. The paper's model (reproduced here) identifies three kinds of
// logical location, Loc = JSVar ∪ HElem ∪ Eloc:
//
//   - JavaScript variables (§4.1): globals, object properties, and locals
//     shared between operations through closures. Function declarations are
//     writes of the function value to a hoisted local (§4.1 "Functions").
//     DOM structure shows up here too: inserting B under A writes
//     B.parentNode and A.childNodes[i], and user edits of form fields write
//     the field's value property (§4.1 "Additional Cases").
//
//   - HTML elements (§4.2): inserting or removing element e writes the
//     logical location for e; accessor reads (getElementById, forms[i], …)
//     read it.
//
//   - Event handler locations (§4.3): the triple (el, e, h). Registering or
//     removing handler h for event e on element el writes (el, e, h);
//     dispatching e on el with handler h reads it.
package mem

import (
	"fmt"
	"strconv"
)

// Kind discriminates the three logical location classes.
type Kind uint8

const (
	// Var is a JavaScript variable: global, object property, or
	// closure-shared local (JSVar, §4.1).
	Var Kind = iota
	// Elem is an HTML element location (HElem, §4.2).
	Elem
	// Handler is an event handler location (el, e, h) ∈ Eloc (§4.3).
	Handler
)

func (k Kind) String() string {
	switch k {
	case Var:
		return "var"
	case Elem:
		return "elem"
	case Handler:
		return "handler"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Loc is one logical memory location. Loc is a value type usable as a map
// key; equality is location identity.
//
//   - Var: Obj is the owning object/scope identity (0 for the global
//     scope of a window, otherwise the object or scope serial), Name the
//     property/variable name.
//   - Elem: Obj is the DOM node serial; Name/Extra unused.
//   - Handler: Obj is the target node serial, Name the event type, Extra
//     the handler identity h (function serial, or 0 for the element's
//     on-event attribute slot).
type Loc struct {
	Kind  Kind
	Obj   uint64
	Name  string
	Extra uint64
}

// VarLoc returns the location of variable/property name on owner obj.
func VarLoc(obj uint64, name string) Loc { return Loc{Kind: Var, Obj: obj, Name: name} }

// ElemLoc returns the HTML element location for an id-less DOM node,
// identified by its node serial.
func ElemLoc(node uint64) Loc { return Loc{Kind: Elem, Obj: node} }

// ElemIDLoc returns the HTML element location for an element with an id
// attribute, identified by (document, id). Keying on the id rather than the
// node lets a failed getElementById("dw") read the same logical location
// that parsing <div id="dw"> later writes — the read-before-create HTML
// race of §2.3 depends on this.
func ElemIDLoc(doc uint64, id string) Loc { return Loc{Kind: Elem, Obj: doc, Name: id} }

// HandlerLoc returns the event handler location (el, event, h).
func HandlerLoc(el uint64, event string, h uint64) Loc {
	return Loc{Kind: Handler, Obj: el, Name: event, Extra: h}
}

func (l Loc) String() string {
	switch l.Kind {
	case Var:
		if l.Obj == 0 {
			return "var " + l.Name
		}
		return "var obj" + strconv.FormatUint(l.Obj, 10) + "." + l.Name
	case Elem:
		if l.Name != "" {
			return "elem #" + l.Name
		}
		return "elem node" + strconv.FormatUint(l.Obj, 10)
	case Handler:
		return "handler (#" + strconv.FormatUint(l.Obj, 10) + ", " + l.Name +
			", h" + strconv.FormatUint(l.Extra, 10) + ")"
	default:
		return fmt.Sprintf("loc(%v)", l.Kind)
	}
}

// AccessKind is read or write.
type AccessKind uint8

const (
	Read AccessKind = iota
	Write
)

func (k AccessKind) String() string {
	if k == Read {
		return "read"
	}
	return "write"
}

// Context tags why an access happened. The detector ignores it; race
// classification (§2's four race types) and the §5.3 filters depend on it.
type Context uint8

const (
	// CtxPlain is an ordinary variable/property access.
	CtxPlain Context = iota
	// CtxFuncDecl is the hoisted write performed by a function
	// declaration (§4.1 Functions).
	CtxFuncDecl
	// CtxFuncCall is the read of a variable performed to invoke it as a
	// function. A CtxFuncDecl/CtxFuncCall race is a function race (§2.4).
	CtxFuncCall
	// CtxElemInsert is the write of an HTML element location caused by
	// inserting the element (parsing or dynamic insertion).
	CtxElemInsert
	// CtxElemRemove is the write caused by removing the element.
	CtxElemRemove
	// CtxElemLookup is a read of an HTML element location via an
	// accessor (getElementById, document.forms[i], …).
	CtxElemLookup
	// CtxHandlerAdd is a write of an event handler location by parsing an
	// on-event content attribute, assigning an on-event property, or
	// addEventListener.
	CtxHandlerAdd
	// CtxHandlerRemove is a write by removeEventListener.
	CtxHandlerRemove
	// CtxHandlerFire is the read of a handler location performed by
	// dispatching the event.
	CtxHandlerFire
	// CtxFormField marks accesses to the value/checked property of a form
	// field made by script (the §5.3 form filter keys on these).
	CtxFormField
	// CtxUserInput marks the write representing user input into a form
	// field (§4.1 Additional Cases, §5.2.2 typing simulation).
	CtxUserInput
)

var ctxNames = [...]string{
	CtxPlain:         "plain",
	CtxFuncDecl:      "func-decl",
	CtxFuncCall:      "func-call",
	CtxElemInsert:    "elem-insert",
	CtxElemRemove:    "elem-remove",
	CtxElemLookup:    "elem-lookup",
	CtxHandlerAdd:    "handler-add",
	CtxHandlerRemove: "handler-remove",
	CtxHandlerFire:   "handler-fire",
	CtxFormField:     "form-field",
	CtxUserInput:     "user-input",
}

func (c Context) String() string {
	if int(c) < len(ctxNames) {
		return ctxNames[c]
	}
	return fmt.Sprintf("ctx(%d)", uint8(c))
}

package js

import "fmt"

// A window's realm — its builtin globals, their members, and the methods
// of objects such as events — is reserved when the window is created and
// built when a script first touches it.
//
// Every object, closure and captured binding draws a serial from the
// allocator the interpreter shares with the DOM, and serials name memory
// locations. Reserving keeps each serial where an eager realm would have
// drawn it: Reserve and ReserveMethod advance the allocator at creation
// time by exactly what building would draw, and the build later issues
// those reserved serials in the same order. A page that never touches a
// builtin never pays for its function objects, and the access stream
// and every serial are the same as if the whole realm had been built up
// front.

// Builtin is one global of a Builtins table.
type Builtin struct {
	Name string
	// Serials is the number of serials Build draws.
	Serials int
	// Build makes the global's value; host is what Reserve was given.
	// It runs with the interpreter's allocations redirected to the
	// serials reserved for it and must draw exactly Serials of them.
	Build func(it *Interp, host any) Value
}

// Builtins is a fixed, ordered table of builtin globals, shared by every
// interpreter that reserves it. Its order is the order its serials are
// drawn in.
type Builtins struct {
	list   []Builtin
	offset []uint64 // serial offset of list[i] from the table's first serial
	index  map[string]int
	total  uint64
}

// NewBuiltins builds a table from globals in serial order. At most 64
// globals fit one table.
func NewBuiltins(list ...Builtin) *Builtins {
	if len(list) > 64 {
		panic(fmt.Sprintf("js: %d builtins in one table (max 64)", len(list)))
	}
	t := &Builtins{list: list, offset: make([]uint64, len(list)), index: make(map[string]int, len(list))}
	for i, b := range list {
		t.offset[i] = t.total
		t.total += uint64(b.Serials)
		t.index[b.Name] = i
	}
	return t
}

// realm is a global scope's reserved tables.
type realm struct {
	owner  *Interp
	tables []reservation
}

// reservation is one table reserved by a global scope: where its serials
// start, and which of its globals are built.
type reservation struct {
	table *Builtins
	host  any
	base  uint64
	built uint64 // bit i: list[i] has been built (or shadowed)
}

// Reserve reserves table's globals in the interpreter's global scope:
// their serials are drawn now, in table order, and each global is built
// on the first lookup, declaration or definition of its name. host is
// passed to every Build.
func (it *Interp) Reserve(table *Builtins, host any) {
	r := reservation{table: table, host: host}
	for i := uint64(0); i < table.total; i++ {
		if s := it.nextSerial(); i == 0 {
			r.base = s
		}
	}
	g := it.global
	if g.realm == nil {
		g.realm = &realm{owner: it}
	}
	g.realm.tables = append(g.realm.tables, r)
}

// reservedGlobal builds the reserved global name into e's bindings and
// returns its binding, or returns nil when no unbuilt reservation of e
// holds name.
func (e *Env) reservedGlobal(name string) *Binding {
	if e.realm == nil {
		return nil
	}
	for k := range e.realm.tables {
		r := &e.realm.tables[k]
		i, ok := r.table.index[name]
		if !ok || r.built&(1<<i) != 0 {
			continue
		}
		r.built |= 1 << i
		it, b := e.realm.owner, r.table.list[i]
		first := r.base + r.table.offset[i]
		it.building, it.buildEnd = first, first+uint64(b.Serials)
		v := b.Build(it, r.host)
		if it.building != it.buildEnd {
			panic(fmt.Sprintf("js: builtin %s drew %d serials, reserved %d", name, it.building-first, b.Serials))
		}
		it.building, it.buildEnd = 0, 0
		bind := &Binding{Value: v}
		e.vars[name] = bind
		return bind
	}
	return nil
}

// nextSerial draws the next serial: a reserved one while a builtin is
// being built, else the allocator's next.
func (it *Interp) nextSerial() uint64 {
	if it.building == 0 {
		return it.serials.Next()
	}
	if it.building == it.buildEnd {
		panic("js: builtin drew more serials than reserved")
	}
	s := it.building
	it.building++
	return s
}

// kindReserved tags a property that holds a reserved method: Num is its
// serial, and Obj its template (nil for a method the owner's host binds).
// Only an object's own property storage ever holds one; GetProp builds
// it on first read.
const kindReserved Kind = 255

// MethodBinder is implemented by the host of an object whose reserved
// methods close over host state (ReserveMethod).
type MethodBinder interface {
	BindMethod(name string) NativeFn
}

// ReserveMethod gives o the method name, in o's property order and with
// a serial drawn now, but builds the function object only when the
// property is first read. o's host must implement MethodBinder; it
// supplies the implementation then.
func (it *Interp) ReserveMethod(o *Object, name string) {
	o.SetProp(name, Value{Kind: kindReserved, Num: float64(it.nextSerial())})
}

// method is a builtin method template shared by every realm: the
// implementation of a reserved method that closes over nothing.
func method(fn NativeFn) *Object { return &Object{Fn: &Closure{Native: fn}} }

// reserveNative gives o the method name implemented by template, like
// ReserveMethod.
func (it *Interp) reserveNative(o *Object, name string, template *Object) {
	o.SetProp(name, Value{Kind: kindReserved, Num: float64(it.nextSerial()), Obj: template})
}

// buildMethod builds o's reserved method name from its placeholder v and
// stores it in place.
func (o *Object) buildMethod(name string, v Value) Value {
	var fn NativeFn
	if v.Obj != nil {
		fn = v.Obj.Fn.Native
	} else {
		fn = o.Host.(MethodBinder).BindMethod(name)
	}
	f := &Object{Serial: uint64(v.Num), Class: "Function"}
	f.Fn = &Closure{Serial: f.Serial, Name: name, Native: fn, Self: f}
	built := ObjectVal(f)
	o.Props[name] = built
	return built
}

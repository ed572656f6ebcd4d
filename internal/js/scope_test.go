package js

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateScopeGolden = flag.Bool("update", false, "rewrite testdata/scope-edges.golden")

// scopeEdgeCases are scripts whose binding behaviour is easy to get
// subtly wrong when scopes are laid out at parse time: duplicate and
// shadowing declarations decide which declaration draws a serial and
// whether a binding is instrumented, and a catch parameter shadows a
// function's hoisted name for the statements inside the catch block.
// Each script leaves its observable result in the global r.
var scopeEdgeCases = []struct{ name, src string }{
	{"duplicate-params", `function f(a, a) { return function() { return a; }; } r = f(1, 2)() + f(3)();`},
	{"param-named-like-function", `var h = function q(q) { return function() { return q; }; }; r = h(5)();`},
	{"param-named-like-function-uncaptured", `var h = function q(q) { return q; }; r = h(6);`},
	{"repeated-var", `function f() { var x = 1; var x = 2; return function() { return x; }; } r = f()();`},
	{"var-and-param", `function f(a) { var a; return function() { return a; }; } r = f(9)();`},
	{"var-arguments", `function f() { var arguments; return function() { return arguments.length; }; } r = f(1, 2)(3);`},
	{"var-arguments-read", `function f() { var arguments; return arguments.length; } r = f(1, 2);`},
	{"var-arguments-captured-read", `function f() { var arguments; var g = function() { return arguments.length; }; return arguments.length + g(1, 2, 3); } r = f(1, 2);`},
	{"var-arguments-assigned", `function f() { var arguments = 4; return arguments; } r = f(1, 2);`},
	{"param-arguments", `function f(arguments) { return arguments.length; } r = f(7, 8, 9);`},
	{"param-arguments-captured", `function k(arguments) { var c = function() { return arguments.length; }; return arguments.length + c(1); } r = k(4, 5);`},
	{"function-named-arguments", `function f() { function arguments() {} return typeof arguments; } r = f(1);`},
	{"arguments-unused", `function f(a) { return a; } r = f(1, 2, 3);`},
	{"arguments-in-catch", `function f() { try { throw 1; } catch (z) { return arguments.length; } } r = f(1, 2);`},
	{"catch-named-arguments", `function f() { try { throw 5; } catch (arguments) { return arguments; } } r = f(1);`},
	{"catch-arguments-captured", `function f() { try { throw 5; } catch (arguments) { return function() { return arguments.length; }; } } r = f(1)(2, 3);`},
	{"global-arguments", `r = typeof arguments;`},
	{"catch-shadows-var", `function f() { try { throw 1; } catch (x) { var x = 2; } return x; } r = f();`},
	{"catch-shadows-forin", `function f() { try { throw 0; } catch (k) { for (var k in {a: 1}) {} return k; } } r = f();`},
	{"catch-shadows-global-var", `try { throw 3; } catch (g1) { var g1 = 4; var other = g1; } r = g1 + "/" + other;`},
	{"closure-across-catch", `function f() { var fs = []; try { throw 7; } catch (e) { fs.push(function() { return e; }); } return fs[0](); } r = f();`},
	{"closure-across-two-catches", `function a() { var v = 1; try { throw 10; } catch (c) { return function() { try { throw 100; } catch (d) { return v + c + d; } }; } } r = a()();`},
	{"funcdecl-in-catch", `function f() { try { throw 1; } catch (e) { function inner() { return typeof e; } } return inner(); } r = f();`},
	{"named-expression-recursion", `var fact = function me(n) { return n <= 1 ? 1 : n * me(n - 1); }; r = fact(5);`},
	{"named-expression-reassigned", `var g = function me() { me = 3; return typeof me; }; r = g();`},
	{"undeclared-assign-in-function", `function f() { fresh = 1; return fresh; } r = f() + fresh;`},
	{"undeclared-read", `function f() { return missing; } try { f(); } catch (err) { r = err.message; }`},
	{"typeof-undeclared-local", `function f() { return typeof nothing; } r = f();`},
	{"repeated-funcdecl", `function f() { function g() { return 1; } function g() { return 2; } return function() { return g(); }; } r = f()();`},
	{"this-through-catch", `var o = {v: 3, m: function() { try { throw 0; } catch (e) { return this.v; } }}; r = o.m();`},
	{"shadowed-global", `var s = "g"; function f(s) { return function() { return s; }; } r = f("l")() + s;`},
	{"deep-hops", `function a(x) { return function b(y) { return function c(z) { return x + y + z + typeof w; }; }; } r = a(1)(2)(3);`},
	{"for-in-undeclared", `function f() { for (k in {p: 1, q: 2}) {} return k; } r = f() + k;`},
}

// scopeTranscript runs src in a fresh interpreter and renders everything
// it observably did: every instrumented access, the error if any, the
// final value of r and the serials drawn.
func scopeTranscript(src string) string {
	serials := &serialCounter{}
	log := &accessLog{}
	it := New(serials, log)
	var b strings.Builder
	if err := it.Run(src, "test"); err != nil {
		fmt.Fprintf(&b, "error: %v\n", err)
	}
	writeTranscript(&b, it, log, serials)
	return b.String()
}

func writeTranscript(b *strings.Builder, it *Interp, log *accessLog, serials *serialCounter) {
	for _, a := range log.accesses {
		fmt.Fprintf(b, "%s %s %s %s\n", a.kind, a.loc, a.ctx, a.desc)
	}
	if r, ok := it.LookupGlobal("r"); ok {
		fmt.Fprintf(b, "r = %s\n", r.ToString())
	}
	fmt.Fprintf(b, "serials = %d\n", serials.n)
}

// crossFrameTranscript calls closures made in one interpreter (frame A)
// from another (frame B) sharing its serial space, the way the browser
// runs a handler a frame registered on its parent: a closure keeps
// reading and creating the globals of the frame that made it.
func crossFrameTranscript() string {
	serials := &serialCounter{}
	log := &accessLog{}
	a, b := New(serials, log), New(serials, log)
	var out strings.Builder
	if err := a.Run(`var x = "A"; function getX() { return x; } function bad() { return missing; } function setY(v) { y = v; return typeof y; }`, "a"); err != nil {
		fmt.Fprintf(&out, "error: %v\n", err)
	}
	if err := b.Run(`var x = "B";`, "b"); err != nil {
		fmt.Fprintf(&out, "error: %v\n", err)
	}
	for _, call := range []struct {
		name string
		args []Value
	}{{"getX", nil}, {"bad", nil}, {"setY", []Value{Number(2)}}} {
		fn, _ := a.LookupGlobal(call.name)
		v, err := b.CallFunction(fn, Undefined, call.args)
		fmt.Fprintf(&out, "%s() = %s, %v\n", call.name, v.ToString(), err)
	}
	ya, oka := a.LookupGlobal("y")
	_, okb := b.LookupGlobal("y")
	fmt.Fprintf(&out, "y in A: %v %s, y in B: %v\n", oka, ya.ToString(), okb)
	writeTranscript(&out, b, log, serials)
	return out.String()
}

// handlerTranscript compiles an on-event handler the way the browser
// does and calls it twice.
func handlerTranscript() string {
	serials := &serialCounter{}
	log := &accessLog{}
	it := New(serials, log)
	var out strings.Builder
	fn, err := it.CompileFunction(`clicked = event + arguments.length; var keep = function() { return event; }; return keep();`, "event")
	if err != nil {
		fmt.Fprintf(&out, "error: %v\n", err)
	}
	for _, arg := range []Value{Number(1), Str("e")} {
		v, err := it.CallFunction(fn, Undefined, []Value{arg, Null})
		fmt.Fprintf(&out, "handler(%s) = %s, %v\n", arg.ToString(), v.ToString(), err)
	}
	writeTranscript(&out, it, log, serials)
	return out.String()
}

// TestScopeEdgeCases pins the transcripts of scopeEdgeCases, a
// cross-frame closure call and a compiled handler against
// testdata/scope-edges.golden, recorded when every scope was still a
// name map walked at run time, and checks every lookup they make against
// the name-walking Env.Lookup. Regenerate deliberately with
//
//	go test ./internal/js -run TestScopeEdgeCases -update
func TestScopeEdgeCases(t *testing.T) {
	check, restore := CheckLookups()
	defer restore()
	var b strings.Builder
	for _, c := range scopeEdgeCases {
		fmt.Fprintf(&b, "== %s\n%s", c.name, scopeTranscript(c.src))
	}
	fmt.Fprintf(&b, "== cross-frame\n%s", crossFrameTranscript())
	fmt.Fprintf(&b, "== handler\n%s", handlerTranscript())
	got := b.String()
	if len(check.Mismatches) > 0 {
		t.Errorf("slot lookups disagree with the name walk for %q", check.Mismatches)
	}

	path := filepath.Join("testdata", "scope-edges.golden")
	if *updateScopeGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("transcript drifted at line %d:\n got  %s\n want %s", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("transcript drifted: %d lines, want %d", len(gl), len(wl))
	}
}

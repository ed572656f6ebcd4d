package js

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// coreBuiltins are the language-level globals every page gets, in the
// order their serials are drawn (see Reserve). Browser-level globals
// (window, document, setTimeout, …) are the browser package's table.
var coreBuiltins = NewBuiltins(
	constant("NaN", Number(math.NaN())),
	constant("Infinity", Number(math.Inf(1))),
	Builtin{Name: "Math", Serials: 1 + len(mathMethods), Build: func(it *Interp, _ any) Value { return ObjectVal(it.mathObject()) }},
	Builtin{Name: "JSON", Serials: 3, Build: func(it *Interp, _ any) Value { return ObjectVal(it.jsonObject()) }},
	Builtin{Name: "Date", Serials: 2, Build: func(it *Interp, _ any) Value { return it.dateConstructor() }},
	native("parseInt", nativeParseInt),
	native("parseFloat", nativeParseFloat),
	native("isNaN", nativeIsNaN),
	constructor("String", nativeString, "fromCharCode", method(nativeFromCharCode)),
	native("encodeURIComponent", nativeEncodeURIComponent),
	native("decodeURIComponent", nativeDecodeURIComponent),
	native("Number", nativeNumber),
	native("Boolean", nativeBoolean),
	constructor("Array", nativeArray, "isArray", method(nativeIsArray)),
	constructor("Object", nativeObject, "keys", method(nativeObjectKeys)),
	native("Error", nativeError),
)

// constant is a builtin global that is a plain value.
func constant(name string, v Value) Builtin {
	return Builtin{Name: name, Build: func(*Interp, any) Value { return v }}
}

// native is a builtin global function.
func native(name string, fn NativeFn) Builtin {
	return Builtin{Name: name, Serials: 1, Build: func(it *Interp, _ any) Value { return it.NativeFunc(name, fn) }}
}

// constructor is a builtin global function with one static method.
func constructor(name string, fn NativeFn, member string, template *Object) Builtin {
	return Builtin{Name: name, Serials: 2, Build: func(it *Interp, _ any) Value {
		v := it.NativeFunc(name, fn)
		it.reserveNative(v.Obj, member, template)
		return v
	}}
}

func nativeParseInt(_ *Interp, _ Value, args []Value) (Value, error) {
	if len(args) == 0 {
		return Number(math.NaN()), nil
	}
	s := strings.TrimSpace(args[0].ToString())
	base := 10
	if len(args) > 1 {
		if b := int(args[1].ToNumber()); b >= 2 && b <= 36 {
			base = b
		}
	}
	neg := false
	if strings.HasPrefix(s, "-") {
		neg = true
		s = s[1:]
	} else {
		s = strings.TrimPrefix(s, "+")
	}
	if base == 16 || base == 10 {
		if strings.HasPrefix(s, "0x") || strings.HasPrefix(s, "0X") {
			s = s[2:]
			base = 16
		}
	}
	// Longest valid prefix.
	end := 0
	for end < len(s) {
		d := digitVal(s[end])
		if d < 0 || d >= base {
			break
		}
		end++
	}
	if end == 0 {
		return Number(math.NaN()), nil
	}
	n, err := strconv.ParseInt(s[:end], base, 64)
	if err != nil {
		return Number(math.NaN()), nil
	}
	f := float64(n)
	if neg {
		f = -f
	}
	return Number(f), nil
}

func nativeParseFloat(_ *Interp, _ Value, args []Value) (Value, error) {
	if len(args) == 0 {
		return Number(math.NaN()), nil
	}
	f, ok := floatPrefix(strings.TrimSpace(args[0].ToString()))
	if !ok {
		return Number(math.NaN()), nil
	}
	return Number(f), nil
}

func nativeIsNaN(_ *Interp, _ Value, args []Value) (Value, error) {
	if len(args) == 0 {
		return True, nil
	}
	return Boolean(math.IsNaN(args[0].ToNumber())), nil
}

func nativeString(_ *Interp, _ Value, args []Value) (Value, error) {
	if len(args) == 0 {
		return Str(""), nil
	}
	return Str(args[0].ToString()), nil
}

func nativeFromCharCode(_ *Interp, _ Value, args []Value) (Value, error) {
	b := make([]rune, 0, len(args))
	for _, a := range args {
		b = append(b, rune(int(a.ToNumber())))
	}
	return Str(string(b)), nil
}

func nativeEncodeURIComponent(_ *Interp, _ Value, args []Value) (Value, error) {
	if len(args) == 0 {
		return Str("undefined"), nil
	}
	return Str(uriEncode(args[0].ToString())), nil
}

func nativeDecodeURIComponent(_ *Interp, _ Value, args []Value) (Value, error) {
	if len(args) == 0 {
		return Str("undefined"), nil
	}
	s, err := uriDecode(args[0].ToString())
	if err != nil {
		return Undefined, &Error{Kind: "URIError", Msg: "malformed URI sequence"}
	}
	return Str(s), nil
}

func nativeNumber(_ *Interp, _ Value, args []Value) (Value, error) {
	if len(args) == 0 {
		return Number(0), nil
	}
	return Number(args[0].ToNumber()), nil
}

func nativeBoolean(_ *Interp, _ Value, args []Value) (Value, error) {
	if len(args) == 0 {
		return False, nil
	}
	return Boolean(args[0].Truthy()), nil
}

func nativeArray(it *Interp, _ Value, args []Value) (Value, error) {
	if len(args) == 1 && args[0].Kind == KindNumber {
		n := int(args[0].Num)
		arr := it.NewArray()
		for i := 0; i < n; i++ {
			arr.Elems = append(arr.Elems, Undefined)
		}
		return ObjectVal(arr), nil
	}
	return ObjectVal(it.NewArray(args...)), nil
}

func nativeIsArray(_ *Interp, _ Value, args []Value) (Value, error) {
	return Boolean(len(args) > 0 && args[0].Kind == KindObject && args[0].Obj.IsArray), nil
}

func nativeObject(it *Interp, _ Value, args []Value) (Value, error) {
	return ObjectVal(it.NewObject("Object")), nil
}

func nativeObjectKeys(it *Interp, _ Value, args []Value) (Value, error) {
	out := it.NewArray()
	if len(args) > 0 && args[0].Kind == KindObject {
		o := args[0].Obj
		if o.IsArray {
			for i := range o.Elems {
				out.Elems = append(out.Elems, Str(NumToString(float64(i))))
			}
		} else {
			for _, k := range o.Keys() {
				out.Elems = append(out.Elems, Str(k))
			}
		}
	}
	return ObjectVal(out), nil
}

func nativeError(it *Interp, this Value, args []Value) (Value, error) {
	o := this.Obj
	if this.Kind != KindObject || o == nil || o.Fn != nil {
		o = it.NewObject("Error")
	}
	msg := ""
	if len(args) > 0 {
		msg = args[0].ToString()
	}
	o.SetProp("name", Str("Error"))
	o.SetProp("message", Str(msg))
	o.SetProp("__str__", Str("Error: "+msg))
	return ObjectVal(o), nil
}

// uriEncode implements encodeURIComponent's escaping (unreserved marks
// kept, everything else percent-encoded byte-wise).
func uriEncode(s string) string {
	const keep = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789-_.!~*'()"
	const hex = "0123456789ABCDEF"
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		c := s[i]
		if strings.IndexByte(keep, c) >= 0 {
			b.WriteByte(c)
		} else {
			b.WriteByte('%')
			b.WriteByte(hex[c>>4])
			b.WriteByte(hex[c&0xf])
		}
	}
	return b.String()
}

func uriDecode(s string) (string, error) {
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		if s[i] != '%' {
			b.WriteByte(s[i])
			continue
		}
		if i+2 >= len(s) || !isHex(s[i+1]) || !isHex(s[i+2]) {
			return "", fmt.Errorf("bad escape at %d", i)
		}
		b.WriteByte(byte(hexVal(s[i+1])<<4 | hexVal(s[i+2])))
		i += 2
	}
	return b.String(), nil
}

func digitVal(c byte) int {
	switch {
	case c >= '0' && c <= '9':
		return int(c - '0')
	case c >= 'a' && c <= 'z':
		return int(c-'a') + 10
	case c >= 'A' && c <= 'Z':
		return int(c-'A') + 10
	default:
		return -1
	}
}

func (it *Interp) mathObject() *Object {
	m := it.NewObject("Math")
	m.SetProp("PI", Number(math.Pi))
	m.SetProp("E", Number(math.E))
	for _, f := range mathMethods {
		it.reserveNative(m, f.name, f.template)
	}
	return m
}

// mathMethods are Math's methods in property order.
var mathMethods = []struct {
	name     string
	template *Object
}{
	{"floor", unaryMath(math.Floor)},
	{"ceil", unaryMath(math.Ceil)},
	{"round", unaryMath(func(f float64) float64 { return math.Floor(f + 0.5) })},
	{"abs", unaryMath(math.Abs)},
	{"sqrt", unaryMath(math.Sqrt)},
	{"sin", unaryMath(math.Sin)},
	{"cos", unaryMath(math.Cos)},
	{"log", unaryMath(math.Log)},
	{"exp", unaryMath(math.Exp)},
	{"pow", method(func(_ *Interp, _ Value, args []Value) (Value, error) {
		if len(args) < 2 {
			return Number(math.NaN()), nil
		}
		return Number(math.Pow(args[0].ToNumber(), args[1].ToNumber())), nil
	})},
	{"max", method(func(_ *Interp, _ Value, args []Value) (Value, error) {
		best := math.Inf(-1)
		for _, a := range args {
			best = math.Max(best, a.ToNumber())
		}
		return Number(best), nil
	})},
	{"min", method(func(_ *Interp, _ Value, args []Value) (Value, error) {
		best := math.Inf(1)
		for _, a := range args {
			best = math.Min(best, a.ToNumber())
		}
		return Number(best), nil
	})},
	{"random", method(func(it *Interp, _ Value, _ []Value) (Value, error) {
		return Number(it.Rand()), nil
	})},
}

// unaryMath is the template of a one-argument Math method.
func unaryMath(f func(float64) float64) *Object {
	return method(func(_ *Interp, _ Value, args []Value) (Value, error) {
		if len(args) == 0 {
			return Number(math.NaN()), nil
		}
		return Number(f(args[0].ToNumber())), nil
	})
}

// jsonObject provides JSON.stringify/parse for the subset of values the
// interpreter supports (no cycles detected beyond a depth cap).
func (it *Interp) jsonObject() *Object {
	j := it.NewObject("JSON")
	it.reserveNative(j, "stringify", jsonStringify)
	it.reserveNative(j, "parse", jsonParse)
	return j
}

var (
	jsonStringify = method(func(_ *Interp, _ Value, args []Value) (Value, error) {
		if len(args) == 0 {
			return Undefined, nil
		}
		var b strings.Builder
		if err := jsonEncode(&b, args[0], 0); err != nil {
			return Undefined, err
		}
		return Str(b.String()), nil
	})
	jsonParse = method(func(it *Interp, _ Value, args []Value) (Value, error) {
		if len(args) == 0 {
			return Undefined, typeError(0, "JSON.parse requires an argument")
		}
		p := &jsonParser{src: args[0].ToString(), it: it}
		v, err := p.value()
		if err != nil {
			return Undefined, err
		}
		return v, nil
	})
)

func jsonEncode(b *strings.Builder, v Value, depth int) error {
	if depth > 64 {
		return typeError(0, "JSON.stringify: structure too deep (cycle?)")
	}
	switch v.Kind {
	case KindUndefined, KindNull:
		b.WriteString("null")
	case KindBool, KindNumber:
		b.WriteString(v.ToString())
	case KindString:
		b.WriteString(strconv.Quote(v.Str))
	case KindObject:
		o := v.Obj
		if o.Fn != nil {
			b.WriteString("null")
			return nil
		}
		if o.IsArray {
			b.WriteByte('[')
			for i, e := range o.Elems {
				if i > 0 {
					b.WriteByte(',')
				}
				if err := jsonEncode(b, e, depth+1); err != nil {
					return err
				}
			}
			b.WriteByte(']')
			return nil
		}
		b.WriteByte('{')
		first := true
		for _, k := range o.Keys() {
			pv, _ := o.GetProp(k)
			if pv.Kind == KindUndefined || pv.IsCallable() {
				continue
			}
			if !first {
				b.WriteByte(',')
			}
			first = false
			b.WriteString(strconv.Quote(k))
			b.WriteByte(':')
			if err := jsonEncode(b, pv, depth+1); err != nil {
				return err
			}
		}
		b.WriteByte('}')
	}
	return nil
}

type jsonParser struct {
	src string
	pos int
	it  *Interp
}

func (p *jsonParser) ws() {
	for p.pos < len(p.src) {
		switch p.src[p.pos] {
		case ' ', '\t', '\n', '\r':
			p.pos++
		default:
			return
		}
	}
}

func (p *jsonParser) value() (Value, error) {
	p.ws()
	if p.pos >= len(p.src) {
		return Undefined, typeError(0, "JSON.parse: unexpected end")
	}
	switch c := p.src[p.pos]; {
	case c == '{':
		p.pos++
		o := p.it.NewObject("Object")
		p.ws()
		if p.pos < len(p.src) && p.src[p.pos] == '}' {
			p.pos++
			return ObjectVal(o), nil
		}
		for {
			p.ws()
			if p.pos >= len(p.src) || p.src[p.pos] != '"' {
				return Undefined, typeError(0, "JSON.parse: expected string key")
			}
			k, err := p.str()
			if err != nil {
				return Undefined, err
			}
			p.ws()
			if p.pos >= len(p.src) || p.src[p.pos] != ':' {
				return Undefined, typeError(0, "JSON.parse: expected ':'")
			}
			p.pos++
			v, err := p.value()
			if err != nil {
				return Undefined, err
			}
			o.SetProp(k, v)
			p.ws()
			if p.pos < len(p.src) && p.src[p.pos] == ',' {
				p.pos++
				continue
			}
			if p.pos < len(p.src) && p.src[p.pos] == '}' {
				p.pos++
				return ObjectVal(o), nil
			}
			return Undefined, typeError(0, "JSON.parse: expected ',' or '}'")
		}
	case c == '[':
		p.pos++
		arr := p.it.NewArray()
		p.ws()
		if p.pos < len(p.src) && p.src[p.pos] == ']' {
			p.pos++
			return ObjectVal(arr), nil
		}
		for {
			v, err := p.value()
			if err != nil {
				return Undefined, err
			}
			arr.Elems = append(arr.Elems, v)
			p.ws()
			if p.pos < len(p.src) && p.src[p.pos] == ',' {
				p.pos++
				continue
			}
			if p.pos < len(p.src) && p.src[p.pos] == ']' {
				p.pos++
				return ObjectVal(arr), nil
			}
			return Undefined, typeError(0, "JSON.parse: expected ',' or ']'")
		}
	case c == '"':
		s, err := p.str()
		return Str(s), err
	case strings.HasPrefix(p.src[p.pos:], "true"):
		p.pos += 4
		return True, nil
	case strings.HasPrefix(p.src[p.pos:], "false"):
		p.pos += 5
		return False, nil
	case strings.HasPrefix(p.src[p.pos:], "null"):
		p.pos += 4
		return Null, nil
	default:
		start := p.pos
		for p.pos < len(p.src) && strings.ContainsRune("-+.eE0123456789", rune(p.src[p.pos])) {
			p.pos++
		}
		f, err := strconv.ParseFloat(p.src[start:p.pos], 64)
		if err != nil {
			return Undefined, typeError(0, "JSON.parse: bad number")
		}
		return Number(f), nil
	}
}

func (p *jsonParser) str() (string, error) {
	s, n, err := lexString(p.src[p.pos:], 1)
	if err != nil {
		return "", typeError(0, "JSON.parse: bad string")
	}
	p.pos += n
	return s, nil
}

// dateConstructor provides Date.now and a minimal new Date() whose
// getTime() reads the browser's virtual clock.
func (it *Interp) dateConstructor() Value {
	d := it.NativeFunc("Date", nativeDate)
	it.reserveNative(d.Obj, "now", dateNow)
	return d
}

func nativeDate(it *Interp, this Value, args []Value) (Value, error) {
	o := this.Obj
	if this.Kind != KindObject || o == nil || o.Fn != nil {
		o = it.NewObject("Date")
	}
	t := it.Now()
	if len(args) > 0 {
		t = args[0].ToNumber()
	}
	o.SetProp("__time__", Number(t))
	o.SetProp("getTime", it.NativeFunc("getTime", func(_ *Interp, _ Value, _ []Value) (Value, error) {
		return Number(t), nil
	}))
	o.SetProp("__str__", Str("[Date "+NumToString(t)+"]"))
	return ObjectVal(o), nil
}

var dateNow = method(func(it *Interp, _ Value, _ []Value) (Value, error) {
	return Number(it.Now()), nil
})

// stringMember implements property access on string primitives.
func (it *Interp) stringMember(s, name string, line int) (Value, error) {
	switch name {
	case "length":
		return Number(float64(len(s))), nil
	case "charAt":
		return it.NativeFunc(name, func(_ *Interp, _ Value, args []Value) (Value, error) {
			i := 0
			if len(args) > 0 {
				i = int(args[0].ToNumber())
			}
			if i < 0 || i >= len(s) {
				return Str(""), nil
			}
			return Str(s[i : i+1]), nil
		}), nil
	case "charCodeAt":
		return it.NativeFunc(name, func(_ *Interp, _ Value, args []Value) (Value, error) {
			i := 0
			if len(args) > 0 {
				i = int(args[0].ToNumber())
			}
			if i < 0 || i >= len(s) {
				return Number(math.NaN()), nil
			}
			return Number(float64(s[i])), nil
		}), nil
	case "indexOf":
		return it.NativeFunc(name, func(_ *Interp, _ Value, args []Value) (Value, error) {
			if len(args) == 0 {
				return Number(-1), nil
			}
			return Number(float64(strings.Index(s, args[0].ToString()))), nil
		}), nil
	case "lastIndexOf":
		return it.NativeFunc(name, func(_ *Interp, _ Value, args []Value) (Value, error) {
			if len(args) == 0 {
				return Number(-1), nil
			}
			return Number(float64(strings.LastIndex(s, args[0].ToString()))), nil
		}), nil
	case "substring", "slice":
		return it.NativeFunc(name, func(_ *Interp, _ Value, args []Value) (Value, error) {
			start, end := sliceBounds(len(s), args)
			return Str(s[start:end]), nil
		}), nil
	case "substr":
		return it.NativeFunc(name, func(_ *Interp, _ Value, args []Value) (Value, error) {
			start := 0
			if len(args) > 0 {
				start = clampIndex(int(args[0].ToNumber()), len(s))
			}
			end := len(s)
			if len(args) > 1 {
				end = start + int(args[1].ToNumber())
				if end > len(s) {
					end = len(s)
				}
				if end < start {
					end = start
				}
			}
			return Str(s[start:end]), nil
		}), nil
	case "toLowerCase":
		return it.NativeFunc(name, func(_ *Interp, _ Value, _ []Value) (Value, error) {
			return Str(strings.ToLower(s)), nil
		}), nil
	case "toUpperCase":
		return it.NativeFunc(name, func(_ *Interp, _ Value, _ []Value) (Value, error) {
			return Str(strings.ToUpper(s)), nil
		}), nil
	case "trim":
		return it.NativeFunc(name, func(_ *Interp, _ Value, _ []Value) (Value, error) {
			return Str(strings.TrimSpace(s)), nil
		}), nil
	case "split":
		return it.NativeFunc(name, func(it *Interp, _ Value, args []Value) (Value, error) {
			if len(args) == 0 {
				return ObjectVal(it.NewArray(Str(s))), nil
			}
			parts := strings.Split(s, args[0].ToString())
			vals := make([]Value, len(parts))
			for i, p := range parts {
				vals[i] = Str(p)
			}
			return ObjectVal(it.NewArray(vals...)), nil
		}), nil
	case "replace":
		return it.NativeFunc(name, func(_ *Interp, _ Value, args []Value) (Value, error) {
			if len(args) < 2 {
				return Str(s), nil
			}
			return Str(strings.Replace(s, args[0].ToString(), args[1].ToString(), 1)), nil
		}), nil
	case "concat":
		return it.NativeFunc(name, func(_ *Interp, _ Value, args []Value) (Value, error) {
			out := s
			for _, a := range args {
				out += a.ToString()
			}
			return Str(out), nil
		}), nil
	case "toString":
		return it.NativeFunc(name, func(_ *Interp, _ Value, _ []Value) (Value, error) {
			return Str(s), nil
		}), nil
	default:
		// Numeric index: s[0].
		if i, ok := arrayIndex(name); ok {
			if i < len(s) {
				return Str(s[i : i+1]), nil
			}
			return Undefined, nil
		}
		return Undefined, nil
	}
}

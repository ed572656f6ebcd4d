package js

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"webracer/internal/sitegen"
)

// sscanfLexNumber is the number lexer as it was before it moved to
// strconv: decimal literals went through fmt.Sscanf("%g"), hex literals
// through the digit loop lexNumber still uses. It is the oracle for
// TestLexNumberMatchesSscanf.
func sscanfLexNumber(src string, line int) (float64, int, error) {
	i := 0
	if strings.HasPrefix(src, "0x") || strings.HasPrefix(src, "0X") {
		i = 2
		v := 0.0
		for i < len(src) && isHex(src[i]) {
			v = v*16 + float64(hexVal(src[i]))
			i++
		}
		if i == 2 {
			return 0, 0, &SyntaxError{Line: line, Msg: "malformed hex literal"}
		}
		return v, i, nil
	}
	for i < len(src) && src[i] >= '0' && src[i] <= '9' {
		i++
	}
	if i < len(src) && src[i] == '.' {
		i++
		for i < len(src) && src[i] >= '0' && src[i] <= '9' {
			i++
		}
	}
	if i < len(src) && (src[i] == 'e' || src[i] == 'E') {
		j := i + 1
		if j < len(src) && (src[j] == '+' || src[j] == '-') {
			j++
		}
		digits := false
		for j < len(src) && src[j] >= '0' && src[j] <= '9' {
			j++
			digits = true
		}
		if digits {
			i = j
		}
	}
	var v float64
	if _, err := fmt.Sscanf(src[:i], "%g", &v); err != nil {
		return 0, 0, &SyntaxError{Line: line, Msg: "malformed number"}
	}
	return v, i, nil
}

// builderLexString is the string lexer as it was before the zero-copy
// path: every literal decoded through a strings.Builder.
func builderLexString(src string, line int) (string, int, error) {
	quote := src[0]
	var b strings.Builder
	i := 1
	for i < len(src) {
		c := src[i]
		switch c {
		case quote:
			return b.String(), i + 1, nil
		case '\\':
			if i+1 >= len(src) {
				return "", 0, &SyntaxError{Line: line, Msg: "unterminated string"}
			}
			i++
			switch src[i] {
			case 'n':
				b.WriteByte('\n')
			case 't':
				b.WriteByte('\t')
			case 'r':
				b.WriteByte('\r')
			case '\\', '\'', '"', '/':
				b.WriteByte(src[i])
			case '0':
				b.WriteByte(0)
			default:
				b.WriteByte(src[i])
			}
			i++
		case '\n':
			return "", 0, &SyntaxError{Line: line, Msg: "newline in string literal"}
		default:
			b.WriteByte(c)
			i++
		}
	}
	return "", 0, &SyntaxError{Line: line, Msg: "unterminated string"}
}

func sameErr(a, b error) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	var sa, sb *SyntaxError
	return errors.As(a, &sa) && errors.As(b, &sb) && *sa == *sb
}

func checkLexNumber(t *testing.T, src string) {
	t.Helper()
	v, n, err := lexNumber(src, 3)
	wv, wn, werr := sscanfLexNumber(src, 3)
	if math.Float64bits(v) != math.Float64bits(wv) || n != wn || !sameErr(err, werr) {
		t.Errorf("lexNumber(%q) = %v, %d, %v; Sscanf oracle = %v, %d, %v", src, v, n, err, wv, wn, werr)
	}
}

// TestLexNumberMatchesSscanf: strconv.ParseFloat reads every literal the
// lexer scans to the same value and the same error as fmt's %g did.
func TestLexNumberMatchesSscanf(t *testing.T) {
	for _, src := range []string{
		"1", "1.", ".5", "1E+5", "1e-400", "1e400", "2.5e-324",
		"1.7976931348623159e308", "1.7976931348623157e308",
		"123456789012345678901234567890", "007.5", "0", "0.0", "1e", "1e+",
		"3.14)", "4.5e3;", "9007199254740993",
		"0x1f", "0X1F", "0xdeadBEEF", "0x", "0xg", "0x1.8p1",
	} {
		checkLexNumber(t, src)
	}
	// A seeded sweep over short digit/dot/exponent strings that start
	// the way the lexer's number case requires.
	r := rand.New(rand.NewSource(1))
	const alphabet = "0123456789.eE+-x"
	for k := 0; k < 5000; k++ {
		b := []byte{"0123456789."[r.Intn(11)]}
		if b[0] == '.' {
			b = append(b, "0123456789"[r.Intn(10)])
		}
		for n := r.Intn(12); n > 0; n-- {
			b = append(b, alphabet[r.Intn(len(alphabet))])
		}
		checkLexNumber(t, string(b))
	}
}

// TestLexStringMatchesBuilder: escape-free literals come back as
// substrings of the source without allocating, escaped ones decode to the
// same text as before, and the error cases keep their messages.
func TestLexStringMatchesBuilder(t *testing.T) {
	for _, src := range []string{
		`"abc"`, `'x"y'`, `""`, `''`, `"a b c" + rest`,
		`"a\nb"`, `'it\'s'`, `"\\"`, `"a\qb"`, `"\0x"`, `"\/\t\r"`, `"tail\"" x`,
		"\"ab\ncd\"", "\"a\\b\ncd\"", `"abc`, `"abc\`, `'a"`, "\"a\\\nb\"",
	} {
		s, n, err := lexString(src, 7)
		ws, wn, werr := builderLexString(src, 7)
		if s != ws || n != wn || !sameErr(err, werr) {
			t.Errorf("lexString(%q) = %q, %d, %v; Builder oracle = %q, %d, %v", src, s, n, err, ws, wn, werr)
		}
		if err == nil && !strings.Contains(src[:n], `\`) {
			if a := testing.AllocsPerRun(20, func() { lexString(src, 7) }); a != 0 {
				t.Errorf("lexString(%q) allocates %v times, want 0 for an escape-free literal", src, a)
			}
		}
	}
	for src, want := range map[string]string{
		"var a = 1;\nvar s = \"ab\ncd\";": "js: syntax error at line 2: newline in string literal",
		"var a = 1;\n\nvar s = 'abc":      "js: syntax error at line 3: unterminated string",
	} {
		if _, err := Lex(src); err == nil || err.Error() != want {
			t.Errorf("Lex(%q) error = %v, want %q", src, err, want)
		}
	}
}

// TestLexPunctLongestMatch pins greedy matching through the first-byte
// table, both on a token stream and against a linear scan of puncts.
func TestLexPunctLongestMatch(t *testing.T) {
	toks, err := Lex(`a !== b >>> c <<= d >>= e &&= f`)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, tk := range toks {
		if tk.Kind == TokPunct {
			got = append(got, tk.Text)
		}
	}
	if want := "!== >>> <<= >>= && ="; strings.Join(got, " ") != want {
		t.Errorf("punctuators = %q, want %q", strings.Join(got, " "), want)
	}

	linear := func(src string) string {
		for _, p := range puncts {
			if strings.HasPrefix(src, p) {
				return p
			}
		}
		return ""
	}
	const alphabet = "=!<>&|+-*/%^~{}()[];,?:.a"
	for _, a := range alphabet {
		for _, b := range alphabet {
			for _, c := range alphabet {
				src := string([]rune{a, b, c})
				for k := 1; k <= 3; k++ {
					if got, want := matchPunct(src[:k]), linear(src[:k]); got != want {
						t.Errorf("matchPunct(%q) = %q, want %q", src[:k], got, want)
					}
				}
			}
		}
	}
}

// TestLexWarmBufferAllocs guards the steady state: lexing an escape-free,
// decimal-only script into a warm token buffer allocates nothing.
func TestLexWarmBufferAllocs(t *testing.T) {
	src := `var total = 0, s = 'plain' + "text";
for (var i = 0; i < 10; i++) { total += i * 2.5e3 - .5; } // comment
if (total !== 1 && s) { total >>>= 2; } /* block */ f(total, [1, 2], {k: 3});`
	buf, err := lex(nil, src)
	if err != nil {
		t.Fatal(err)
	}
	if a := testing.AllocsPerRun(50, func() { buf, _ = lex(buf[:0], src) }); a != 0 {
		t.Fatalf("lex into a warm buffer allocates %v times per run, want 0", a)
	}
}

// corpusScripts returns the scripts of the first n corpus pages.
func corpusScripts(n int) []string {
	var out []string
	for i := 0; i < n; i++ {
		out = append(out, scriptsOf(sitegen.Generate(sitegen.SpecFor(1, i)).Resources)...)
	}
	return out
}

func printParse(src string) string {
	prog, err := Parse(src)
	if err != nil {
		return "error: " + err.Error()
	}
	return PrintAST(prog)
}

// TestParseTokenPoolSafety: a pooled token buffer carries nothing from
// one parse into the next — not after it grew, not after a syntax error,
// and not across goroutines parsing at once.
func TestParseTokenPoolSafety(t *testing.T) {
	a := `var x = "a"; function f(y) { return x + y; } f(1);`
	b := strings.Repeat(`var long = {k: [1, 2, 'three'], m: function() { return this.k; }};`+"\n", 200)
	first := printParse(a)
	if strings.HasPrefix(first, "error") {
		t.Fatal(first)
	}
	if got := printParse(b); strings.HasPrefix(got, "error") {
		t.Fatal(got)
	}
	for _, bad := range []string{"var q = 1; var r = {;", "var q = 1; var s = 'open"} {
		if _, err := Parse(bad); err == nil {
			t.Fatalf("Parse(%q) succeeded, want a syntax error", bad)
		}
	}
	if again := printParse(a); again != first {
		t.Fatalf("reparse after buffer reuse differs:\n%s\nwant:\n%s", again, first)
	}

	scripts := corpusScripts(40)
	want := make([]string, len(scripts))
	for i, src := range scripts {
		want[i] = printParse(src)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := range scripts {
				i := (k + g*len(scripts)/4) % len(scripts)
				if got := printParse(scripts[i]); got != want[i] {
					t.Errorf("goroutine %d: concurrent parse of script %d differs from serial", g, i)
				}
			}
		}(g)
	}
	wg.Wait()
}

// parseSink keeps the benchmarked parses observable to the compiler.
var parseSink *Program

// BenchmarkParseCorpus parses the scripts of the first 200 corpus pages:
// the JavaScript front end's share of a cold detection run.
//
//	go test -run '^$' -bench ParseCorpus -benchmem ./internal/js
func BenchmarkParseCorpus(b *testing.B) {
	scripts := corpusScripts(200)
	bytes := 0
	for _, src := range scripts {
		bytes += len(src)
	}
	b.SetBytes(int64(bytes))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, src := range scripts {
			prog, err := Parse(src)
			if err != nil {
				b.Fatal(err)
			}
			parseSink = prog
		}
	}
}

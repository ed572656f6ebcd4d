package js

import (
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"
	"time"
)

// loopFloatPrefix is parseFloat's number scan as it was: try
// strconv.ParseFloat on every prefix from the longest down. It is the
// oracle for floatPrefix, and quadratic in len(s).
func loopFloatPrefix(s string) (float64, bool) {
	end := len(s)
	for end > 0 {
		if _, err := strconv.ParseFloat(s[:end], 64); err == nil {
			break
		}
		end--
	}
	if end == 0 {
		return 0, false
	}
	f, _ := strconv.ParseFloat(s[:end], 64)
	return f, true
}

func checkFloatPrefix(t *testing.T, s string) {
	t.Helper()
	got, gok := floatPrefix(s)
	want, wok := loopFloatPrefix(s)
	same := math.Float64bits(got) == math.Float64bits(want) || math.IsNaN(got) && math.IsNaN(want)
	if gok != wok || !same {
		t.Errorf("floatPrefix(%q) = %v, %v; prefix loop = %v, %v", s, got, gok, want, wok)
	}
}

// TestFloatPrefixMatchesLoop: the one-pass scan returns what the prefix
// loop returns on the forms strconv accepts, their broken variants and a
// seeded sweep over their alphabet.
func TestFloatPrefixMatchesLoop(t *testing.T) {
	for _, s := range []string{
		"", "1", "12.5px", ".5", ".", "+.5e1", "-", "-3", "1e", "1e+", "1e+5x", "1E5",
		"1e400", "-1e400", "1e-400", "1e99999999999", "2e308", "1.7976931348623159e308",
		"0x", "0x1", "0x1p4", "0x1p", "0x1.8p1", "0X1P-2", "0x_1p0", "0x1_p0", "0x1p1_0",
		"0x1p99999", "0xfffffffffffffffffffffffffffffp9999", "1_000", "1__0", "_1", "1_", "1_.5",
		"1e1_0", "1e_1", "inf", "-Infinity", "+infinit", "infinityx", "nan", "NaN7", "+nan",
		"1.2.3", "00012", "3px 4px", "0.0e99999999", "1" + strings.Repeat("0", 400) + ".5e-100",
		strings.Repeat("9", 310), strings.Repeat("1", 400) + "e-50",
	} {
		checkFloatPrefix(t, s)
	}
	r := rand.New(rand.NewSource(1))
	const alphabet = "0123456789.eEpPxX+-_iInNfFaAtTyY "
	for k := 0; k < 20000; k++ {
		b := make([]byte, r.Intn(14))
		for i := range b {
			b[i] = alphabet[r.Intn(len(alphabet))]
		}
		checkFloatPrefix(t, string(b))
	}
}

// TestFloatPrefixLinear: inputs on which the prefix loop takes seconds
// (it spent 17 s on "1"×32000 + "x"×32000) finish in well under one, and
// agree with the loop where it is affordable.
func TestFloatPrefixLinear(t *testing.T) {
	const n = 32000
	for _, s := range []string{
		strings.Repeat("1", n) + strings.Repeat("x", n),
		strings.Repeat("1", n),
		"1e" + strings.Repeat("9", n),
		"0x1p" + strings.Repeat("9", n),
		strings.Repeat("1", n) + "e-" + strings.Repeat("1", n),
	} {
		start := time.Now()
		floatPrefix(s)
		if d := time.Since(start); d > time.Second {
			t.Errorf("floatPrefix on %d bytes took %v", len(s), d)
		}
		checkFloatPrefix(t, s[:1000])
	}
}

// FuzzParseFloat holds floatPrefix to the prefix loop on any input.
//
//	go test -fuzz=FuzzParseFloat ./internal/js
func FuzzParseFloat(f *testing.F) {
	for _, s := range []string{"1e400", "0x1p-2x", "-Infinityx", "1_0.5e1_0", "12.5px", "nan"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		if len(s) > 2048 {
			return
		}
		checkFloatPrefix(t, s)
	})
}

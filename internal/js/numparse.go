package js

import (
	"sort"
	"strconv"
)

// floatPrefix implements the number scan of parseFloat: the value of the
// longest prefix of s that strconv.ParseFloat accepts without error, and
// false when no non-empty prefix does. A prefix that overflows is
// rejected too, so "1e400" reads as 1e40.
//
// Trying every prefix from the longest down costs O(n) per attempt and
// O(n²) in all. Instead floatPrefixEnds lists the syntactically valid
// prefixes in one pass, and only those are parsed: the longest first,
// and if it overflows, a binary search over the rest. The search is
// sound because overflow is monotone in the prefix length once the
// longest valid prefix overflows: digits added to a mantissa or to a
// positive exponent only grow the magnitude, and with a negative
// exponent the longest prefix is the smallest one that has it.
func floatPrefix(s string) (float64, bool) {
	var buf [16]int
	ends := floatPrefixEnds(s, buf[:0])
	n := len(ends)
	if n == 0 {
		return 0, false
	}
	if f, err := strconv.ParseFloat(s[:ends[n-1]], 64); err == nil {
		return f, true
	}
	i := sort.Search(n-1, func(i int) bool {
		_, err := strconv.ParseFloat(s[:ends[i]], 64)
		return err != nil
	})
	if i == 0 {
		return 0, false
	}
	f, _ := strconv.ParseFloat(s[:ends[i-1]], 64)
	return f, true
}

// floatPrefixEnds appends to ends, in increasing order, every length e
// at which s[:e] is well-formed for strconv.ParseFloat: Go's decimal and
// hexadecimal float syntax with underscores between digits, or a
// special value ([+-]inf, [+-]infinity, nan, in any case).
func floatPrefixEnds(s string, ends []int) []int {
	pos := 0
	if pos < len(s) && (s[pos] == '+' || s[pos] == '-') {
		pos++
	}
	if pos < len(s) && lower(s[pos]) == 'i' {
		n := foldPrefixLen(s[pos:], "infinity")
		if n >= 3 {
			ends = append(ends, pos+3)
		}
		if n == 8 {
			ends = append(ends, pos+8)
		}
		return ends
	}
	if pos == 0 && foldPrefixLen(s, "nan") == 3 {
		return append(ends, 3)
	}

	// A "0x" prefix selects hexadecimal only when more follows it; "0"
	// alone reads as decimal.
	hex := false
	i := pos
	expChar := byte('e')
	if pos+2 <= len(s) && s[pos] == '0' && lower(s[pos+1]) == 'x' {
		ends = append(ends, pos+1)
		hex, expChar = true, 'p'
		i = pos + 2
	}
	const (
		mantissa = iota
		expStart // just past the exponent character
		expSign
		expDigits
	)
	phase := mantissa
	sawDigits, sawDot := false, false
	// us tracks strconv's underscore rule: an underscore must sit
	// between digits, the base prefix counting as a digit. last is the
	// class of the previous character: '0' digit, '_' underscore, '!'
	// other, '^' start.
	usOK, last := true, byte('^')
	if hex {
		last = '0'
	}
	for ; i < len(s); i++ {
		c := s[i]
		digit := '0' <= c && c <= '9'
		hexDigit := digit || hex && 'a' <= lower(c) && lower(c) <= 'f'
		switch phase {
		case mantissa:
			switch {
			case c == '_':
			case c == '.':
				if sawDot {
					return ends
				}
				sawDot = true
			case hexDigit:
				sawDigits = true
			case lower(c) == expChar && sawDigits:
				phase = expStart
			default:
				return ends
			}
		case expStart:
			switch {
			case c == '+' || c == '-':
				phase = expSign
			case digit:
				phase = expDigits
			default:
				return ends
			}
		case expSign:
			if !digit {
				return ends
			}
			phase = expDigits
		case expDigits:
			if !digit && c != '_' {
				return ends
			}
		}
		switch {
		case hexDigit:
			last = '0'
		case c == '_':
			usOK = usOK && last == '0'
			last = '_'
		default:
			usOK = usOK && last != '_'
			last = '!'
		}
		complete := phase == expDigits || phase == mantissa && sawDigits && !hex
		if complete && usOK && last != '_' {
			ends = append(ends, i+1)
		}
	}
	return ends
}

// foldPrefixLen returns the length of the longest common prefix of s and
// the lower-case word, ignoring case in s.
func foldPrefixLen(s, word string) int {
	n := 0
	for n < len(s) && n < len(word) && lower(s[n]) == word[n] {
		n++
	}
	return n
}

func lower(c byte) byte { return c | ('x' - 'X') }

package js

import (
	"reflect"
	"sync"
	"testing"
)

// TestProgramsNilParsesAfresh: a nil memo is plain Parse.
func TestProgramsNilParsesAfresh(t *testing.T) {
	var ps *Programs
	a, err := ps.Parse("var x = 1;")
	if err != nil {
		t.Fatal(err)
	}
	b, _ := ps.Parse("var x = 1;")
	if a == b {
		t.Fatal("nil memo returned a shared Program")
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("two fresh parses differ")
	}
}

// TestProgramsShareResultsAndErrors: a memo returns the same Program for
// the same source, and the same error value for a broken one.
func TestProgramsShareResultsAndErrors(t *testing.T) {
	ps := NewPrograms()
	a, _ := ps.Parse("var x = 1;")
	b, _ := ps.Parse("var x = 1;")
	if a != b {
		t.Fatal("memo parsed the same source twice")
	}
	if c, _ := ps.Parse("var x = 2;"); c == a {
		t.Fatal("memo conflated two sources")
	}
	p1, e1 := ps.Parse("var = ;")
	p2, e2 := ps.Parse("var = ;")
	if e1 == nil || p1 != nil || p2 != nil || e1 != e2 {
		t.Fatalf("broken source: (%v, %v) then (%v, %v); want one shared error", p1, e1, p2, e2)
	}
	if _, fresh := Parse("var = ;"); fresh.Error() != e1.Error() {
		t.Fatalf("memoized error %q, fresh %q", e1, fresh)
	}
	if st := ps.Stats(); st != (ProgramStats{Hits: 2, Misses: 3}) {
		t.Fatalf("stats = %+v, want 2 hits, 3 misses", st)
	}
}

// TestProgramsConcurrent: concurrent parses of one source share a single
// parse.
func TestProgramsConcurrent(t *testing.T) {
	ps := NewPrograms()
	const n = 8
	progs := make([]*Program, n)
	var wg sync.WaitGroup
	for i := range progs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			progs[i], _ = ps.Parse("function f(a) { return a + 1; } f(2);")
		}()
	}
	wg.Wait()
	for _, p := range progs[1:] {
		if p != progs[0] {
			t.Fatal("concurrent callers got different Programs")
		}
	}
	if st := ps.Stats(); st.Misses != 1 || st.Hits != n-1 {
		t.Fatalf("stats = %+v, want 1 miss, %d hits", st, n-1)
	}
}

package js

import "sync"

// Programs memoizes Parse by exact source text. A multi-run sweep shares
// one memo across all its runs and workers, so a script that every run
// loads is parsed once per sweep instead of once per run; the memo is
// dropped with the sweep. It is safe for concurrent use.
//
// Sharing is sound because a Program is read-only once Parse returns:
// the resolver sets its binding flags during Parse, and the interpreter
// only reads the AST. Parse errors are memoized too, so every caller of
// a broken source gets the same error value.
//
// A nil *Programs parses every call afresh, exactly like Parse.
type Programs struct {
	mu      sync.Mutex
	entries map[string]*programEntry
	stats   ProgramStats
}

// ProgramStats counts a memo's lookups: Misses is the number of distinct
// sources parsed, Hits the lookups answered from the memo.
type ProgramStats struct {
	Hits, Misses int
}

type programEntry struct {
	once sync.Once
	prog *Program
	err  error
}

// NewPrograms returns an empty parse memo.
func NewPrograms() *Programs {
	return &Programs{entries: map[string]*programEntry{}}
}

// Parse returns Parse(src), parsing each distinct src at most once.
// Concurrent callers with the same src wait for the one parse.
func (ps *Programs) Parse(src string) (*Program, error) {
	if ps == nil {
		return Parse(src)
	}
	ps.mu.Lock()
	e := ps.entries[src]
	if e == nil {
		e = &programEntry{}
		ps.entries[src] = e
		ps.stats.Misses++
	} else {
		ps.stats.Hits++
	}
	ps.mu.Unlock()
	e.once.Do(func() { e.prog, e.err = Parse(src) })
	if e.prog == nil && e.err == nil {
		// The first parse panicked; fail this caller the same way.
		return Parse(src)
	}
	return e.prog, e.err
}

// Stats returns the memo's lookup counters.
func (ps *Programs) Stats() ProgramStats {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	return ps.stats
}

// Range calls f for every memoized source with its parse outcome, in no
// particular order, until f returns false. It must not run concurrently
// with Parse.
func (ps *Programs) Range(f func(src string, prog *Program, err error) bool) {
	ps.mu.Lock()
	entries := make(map[string]*programEntry, len(ps.entries))
	for src, e := range ps.entries {
		entries[src] = e
	}
	ps.mu.Unlock()
	for src, e := range entries {
		if !f(src, e.prog, e.err) {
			return
		}
	}
}

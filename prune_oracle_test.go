package webracer

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"

	"webracer/internal/explore"
	"webracer/internal/loader"
	"webracer/internal/mem"
	"webracer/internal/op"
	"webracer/internal/race"
	"webracer/internal/sitegen"
)

// The original regexp canonName and map-of-strings fingerprintOf are
// kept here as oracles. canonName must produce exactly the regexp's
// strings; fingerprintOf must split runs into exactly the oracle's
// classes (its strings differ), so every pruned pass and every golden
// stays put.

var oracleDOMSerial = regexp.MustCompile(`#[0-9]+|\b(?:obj|node)[0-9]+\b`)

func oracleCanonName(s string) string {
	return oracleDOMSerial.ReplaceAllStringFunc(s, func(m string) string {
		if m[0] == '#' {
			return "#?"
		}
		return strings.TrimRight(m, "0123456789") + "?"
	})
}

func oracleAccessLabel(a race.Access) string {
	return a.Kind.String() + " " + oracleCanonName(fmtLocString(a.Loc)) + " [" + a.Ctx.String() + "]"
}

func oracleFingerprintOf(res *Result) string {
	b := res.Browser
	trace := b.Trace()
	nOps := b.Ops.Len()
	cb := newCanon(nOps + len(trace))
	node := func(traceIdx int) int { return nOps + 1 + traceIdx }
	for id := 1; id <= nOps; id++ {
		o := b.Ops.Get(op.ID(id))
		switch o.Kind {
		case op.KindHandler, op.KindAnchor, op.KindJoin, op.KindUser:
			cb.Event(id, "op "+o.Kind.String()+" "+oracleCanonName(o.Label))
		}
	}
	byLoc := map[string][]int{}
	for idx, a := range trace {
		key := fmtLocString(a.Loc)
		byLoc[key] = append(byLoc[key], idx)
	}
	g := b.HB
	for _, stream := range byLoc {
		lastW := -1
		for j, idx := range stream {
			if trace[idx].Kind == mem.Write {
				lastW = j
			}
		}
		for j, idx := range stream {
			a := trace[idx]
			cb.Event(node(idx), oracleAccessLabel(a))
			if lastW < 0 {
				continue
			}
			for k := 0; k < j; k++ {
				p := trace[stream[k]]
				if a.Kind != mem.Write && p.Kind != mem.Write {
					continue
				}
				if p.Op == a.Op || g.HappensBefore(p.Op, a.Op) {
					cb.Edge(node(stream[k]), node(idx))
				}
			}
			if j > 0 && j <= lastW {
				cb.Edge(node(stream[j-1]), node(idx))
			}
		}
	}
	return cb.Fingerprint()
}

// TestPruneCanonNameMatchesRegexp: the byte scanner rewrites exactly
// what the regexp did, on random strings over an alphabet dense in
// near-misses — "#" with and without digits, "obj"/"node" prefixes
// glued to word characters on either side, a multi-byte rune and an
// invalid UTF-8 byte at the boundaries.
func TestPruneCanonNameMatchesRegexp(t *testing.T) {
	alphabet := []string{"#", "o", "b", "j", "n", "d", "e", "_", "Z", ".", "(", ",",
		"0", "1", "7", "9", "é", "\xff", "obj", "node", "#1"}
	fixed := []string{"", "#", "#1", "obj", "obj1", "node12", "xobj1", "obj1x", "obj1_",
		"obj1.", "_node3", "énode3", "node3é", "\xffobj2\xff", "##12#", "node#3", "obj01obj2",
		"var obj12.x", "elem node7", "handler (#4, click, h9)", "op handler click #send",
		"var obj3.obj4", "nobj1", "node1node2", "obj1 obj2", "#0123", "ob j1"}
	check := func(s string) {
		t.Helper()
		if got, want := canonName(s), oracleCanonName(s); got != want {
			t.Fatalf("canonName(%q) = %q, regexp gives %q", s, got, want)
		}
	}
	for _, s := range fixed {
		check(s)
	}
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20000; trial++ {
		var sb strings.Builder
		for k := rng.Intn(12); k > 0; k-- {
			sb.WriteString(alphabet[rng.Intn(len(alphabet))])
		}
		check(sb.String())
	}
}

// TestPruneCanonNameGoldens: every string in the committed goldens —
// op labels, locations, descriptions and map keys alike — normalizes
// the same way under the scanner and the regexp.
func TestPruneCanonNameGoldens(t *testing.T) {
	paths, _ := filepath.Glob("testdata/golden/*.json")
	more, _ := filepath.Glob("internal/serve/testdata/golden/*.json")
	paths = append(paths, more...)
	var walk func(v any)
	n := 0
	walk = func(v any) {
		switch v := v.(type) {
		case string:
			n++
			if got, want := canonName(v), oracleCanonName(v); got != want {
				t.Errorf("canonName(%q) = %q, regexp gives %q", v, got, want)
			}
		case []any:
			for _, x := range v {
				walk(x)
			}
		case map[string]any:
			for k, x := range v {
				walk(k)
				walk(x)
			}
		}
	}
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var doc any
		if err := json.Unmarshal(data, &doc); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		walk(doc)
	}
	if n < 1000 {
		t.Fatalf("only %d golden strings checked in %d files", n, len(paths))
	}
}

// TestPruneCanonNameNoAlloc: a label without a DOM serial — most
// locations and dispatch labels — is returned as is.
func TestPruneCanonNameNoAlloc(t *testing.T) {
	for _, s := range []string{"var stat0", "elem #dd0 [elem-insert]", "op handler load dda0.js"} {
		if allocs := testing.AllocsPerRun(100, func() { _ = canonName(s) }); allocs != 0 {
			t.Errorf("canonName(%q): %v allocs, want 0", s, allocs)
		}
	}
}

// oracleSites is the fingerprint differential's page set: sched, fault,
// corpus and stress pages.
func oracleSites() []*loader.Site {
	var sites []*loader.Site
	for i := 0; i < 4; i++ {
		sites = append(sites,
			sitegen.Generate(sitegen.SchedSpec(i)),
			sitegen.Generate(sitegen.FaultSpec(i)),
			sitegen.Generate(sitegen.SpecFor(1, i)))
	}
	for i := 4; i < 16; i++ {
		sites = append(sites, sitegen.Generate(sitegen.SpecFor(1, i)))
	}
	return append(sites, sitegen.Generate(sitegen.StressSpec(0)), sitegen.Fig1(), sitegen.Fig4())
}

// TestPruneFingerprintMatchesOracle is the partition differential: on
// the cheap-pass results of sched, fault, corpus and stress pages and
// the paper figures at 16 seeds each, two runs share a fingerprint
// exactly when they share the DAG canonicalizer's. The check spans all
// runs at once, so a merge across pages would fail it too.
func TestPruneFingerprintMatchesOracle(t *testing.T) {
	seeds := []int64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 7920, 15839, 99991, 424242}
	toOracle, fromOracle := map[string]string{}, map[string]string{}
	runs := 0
	for _, site := range oracleSites() {
		for _, seed := range seeds {
			cfg := cheapConfig(DefaultConfig(1))
			cfg.Seed = seed
			res := RunConfig(site, cfg)
			got, want := fingerprintOf(res), oracleFingerprintOf(res)
			if again := fingerprintOf(res); again != got {
				t.Fatalf("%s seed %d: fingerprint drifted: %s vs %s", site.Name, seed, got, again)
			}
			if o, ok := toOracle[got]; ok && o != want {
				t.Errorf("%s seed %d: fingerprint %s merges oracle classes %s and %s", site.Name, seed, got, o, want)
			}
			if f, ok := fromOracle[want]; ok && f != got {
				t.Errorf("%s seed %d: oracle class %s splits into %s and %s", site.Name, seed, want, f, got)
			}
			toOracle[got], fromOracle[want] = want, got
			runs++
		}
	}
	if len(toOracle) == runs {
		t.Fatalf("%d runs in %d classes: no two runs shared a class, so the partition went unchecked", runs, len(toOracle))
	}
	t.Logf("%d runs, %d classes", runs, len(toOracle))
}

// oracleNotePairs is notePairs with its original string dedup key.
func oracleNotePairs(cs *explore.ClassSet, res *Result) {
	byLoc := map[string][]race.Access{}
	seen := map[string]bool{}
	for _, a := range res.Browser.Trace() {
		key := fmtLocString(a.Loc)
		dedup := key + "|" + fmt.Sprint(a.Op) + "|" + a.Kind.String()
		if seen[dedup] {
			continue
		}
		seen[dedup] = true
		byLoc[key] = append(byLoc[key], a)
	}
	g := res.Browser.HB
	label := func(id op.ID) string {
		o := res.Browser.Ops.Get(id)
		return o.Kind.String() + " " + o.Label
	}
	for locKey, accs := range byLoc {
		for i := 0; i < len(accs); i++ {
			for j := i + 1; j < len(accs); j++ {
				x, y := accs[i], accs[j]
				if x.Op == y.Op || (x.Kind != mem.Write && y.Kind != mem.Write) {
					continue
				}
				var forward bool
				switch {
				case g.HappensBefore(x.Op, y.Op):
					forward = true
				case g.HappensBefore(y.Op, x.Op):
					x, y = y, x
					forward = true
				default:
					continue
				}
				lx, ly := label(x.Op), label(y.Op)
				if lx <= ly {
					cs.NotePair(locKey+"|"+lx+"|"+ly, forward)
				} else {
					cs.NotePair(locKey+"|"+ly+"|"+lx, !forward)
				}
			}
		}
	}
}

// oneWayKeys lists the pair keys cs has seen in one orientation only.
func oneWayKeys(cs *explore.ClassSet) []string {
	var keys []string
	cs.OneWay(func(key string) bool {
		keys = append(keys, key)
		return false
	})
	slices.Sort(keys)
	return keys
}

// TestPruneNotePairsMatchesOracle: folding the same executions into the
// steering index with the struct-keyed notePairs and with the original
// leaves the same one-way pairs, the set OneWay steers by. Each site
// folds several seeds, so orientations also cancel out. The stress page
// is left out: its pair count makes the oracle slow.
func TestPruneNotePairsMatchesOracle(t *testing.T) {
	total := 0
	for _, site := range oracleSites() {
		if strings.HasPrefix(site.Name, "stress") {
			continue
		}
		got, want := explore.NewClassSet(), explore.NewClassSet()
		for _, seed := range []int64{1, 2, 7920} {
			cfg := cheapConfig(DefaultConfig(1))
			cfg.Seed = seed
			res := RunConfig(site, cfg)
			notePairs(got, res)
			oracleNotePairs(want, res)
		}
		g, w := oneWayKeys(got), oneWayKeys(want)
		if !slices.Equal(g, w) {
			t.Errorf("%s: one-way pairs differ: %d keys vs oracle's %d", site.Name, len(g), len(w))
		}
		total += len(w)
	}
	if total == 0 {
		t.Fatal("no one-way pairs on any site: the comparison checked nothing")
	}
}

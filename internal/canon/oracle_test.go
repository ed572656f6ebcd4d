package canon

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"testing"
)

// oracleBuilder is the generic DAG canonicalizer the package once was,
// in its original per-node-slice form: a Merkle hash of a labeled
// partial order by Foata depth, label multiset and sorted ancestor
// hashes. It is the partition oracle for the chain-digest Builder: two
// inputs must share a Builder fingerprint exactly when they share this
// one's (oracleFingerprint).
type oracleBuilder struct {
	preds  [][]int32
	events [][]string
}

func newOracle(n int) *oracleBuilder {
	if n < 0 {
		n = 0
	}
	return &oracleBuilder{preds: make([][]int32, n), events: make([][]string, n)}
}

func (b *oracleBuilder) Edge(from, to int) {
	if from < 1 || to < 1 || from > len(b.preds) || to > len(b.preds) || from == to {
		return
	}
	b.preds[to-1] = append(b.preds[to-1], int32(from))
}

func (b *oracleBuilder) Event(id int, label string) {
	if id < 1 || id > len(b.events) {
		return
	}
	b.events[id-1] = append(b.events[id-1], label)
}

func (b *oracleBuilder) Fingerprint() string {
	n := len(b.preds)
	// Kahn topological order. The processing order among ready nodes is
	// irrelevant: each node's hash depends only on its predecessors.
	indeg := make([]int, n)
	for to := range b.preds {
		indeg[to] = len(b.preds[to])
	}
	queue := make([]int32, 0, n)
	for i := 0; i < n; i++ {
		if indeg[i] == 0 {
			queue = append(queue, int32(i))
		}
	}
	succs := make([][]int32, n)
	for to := range b.preds {
		for _, p := range b.preds[to] {
			succs[p-1] = append(succs[p-1], int32(to))
		}
	}
	order := make([]int32, 0, n)
	for len(queue) > 0 {
		i := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		order = append(order, i)
		for _, t := range succs[i] {
			indeg[t]--
			if indeg[t] == 0 {
				queue = append(queue, t)
			}
		}
	}
	if len(order) < n {
		// Cycle: append the unprocessed nodes in index order so the
		// result stays deterministic (contributions from unprocessed
		// predecessors are simply absent).
		inOrder := make([]bool, n)
		for _, i := range order {
			inOrder[i] = true
		}
		for i := 0; i < n; i++ {
			if !inOrder[i] {
				order = append(order, int32(i))
			}
		}
	}

	var (
		hashes = make([][]byte, n) // relevant nodes only
		// nearest[i] is the identity set (sorted op indices) of i's
		// nearest relevant ancestors: i itself when relevant, else the
		// union over predecessors. Identity — not hash — so a diamond
		// through one ancestor counts once while two distinct ancestors
		// that happen to hash equally still count twice.
		nearest = make([][]int32, n)
		depth   = make([]int, n) // Foata layer: relevant ops on the longest path
		final   [][]byte
		h       = sha256.New()
		num     [4]byte
	)
	writeNum := func(v int) {
		binary.LittleEndian.PutUint32(num[:], uint32(v))
		h.Write(num[:])
	}
	writeStr := func(s string) {
		writeNum(len(s))
		h.Write([]byte(s))
	}
	for _, i := range order {
		d := 0
		anc := []int32{}
		for _, p := range b.preds[i] {
			pi := p - 1
			if depth[pi] > d {
				d = depth[pi]
			}
			anc = oracleMergeUnique(anc, nearest[pi])
		}
		if len(b.events[i]) == 0 {
			nearest[i], depth[i] = anc, d
			continue
		}
		d++
		events := append([]string(nil), b.events[i]...)
		sort.Strings(events)
		contrib := make([][]byte, len(anc))
		for k, a := range anc {
			contrib[k] = hashes[a]
		}
		sort.Slice(contrib, func(x, y int) bool {
			return string(contrib[x]) < string(contrib[y])
		})
		h.Reset()
		h.Write([]byte{'N'})
		writeNum(d)
		writeNum(len(events))
		for _, e := range events {
			writeStr(e)
		}
		writeNum(len(contrib))
		for _, c := range contrib {
			h.Write(c)
		}
		sum := h.Sum(nil)
		hashes[i] = sum
		nearest[i], depth[i] = []int32{i}, d
		final = append(final, sum)
	}
	sort.Slice(final, func(x, y int) bool {
		return string(final[x]) < string(final[y])
	})
	h.Reset()
	h.Write([]byte{'T'})
	writeNum(len(final))
	for _, s := range final {
		h.Write(s)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// oracleMergeUnique merges two ascending unique int32 slices into a fresh
// ascending unique slice.
func oracleMergeUnique(a, b []int32) []int32 {
	if len(b) == 0 {
		return a
	}
	if len(a) == 0 {
		return append([]int32(nil), b...)
	}
	out := make([]int32, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			out = append(out, a[i])
			i++
		case a[i] > b[j]:
			out = append(out, b[j])
			j++
		default:
			out = append(out, a[i])
			i, j = i+1, j+1
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out
}

// oracleFingerprint feeds in to the DAG canonicalizer the way the
// pruned sweep did before the chain digests: one node per dispatch label
// and per access, an edge for every HB-ordered conflicting pair of a
// location, and the observed-order chain up to the final write.
func oracleFingerprint(in input) string {
	total := len(in.ops)
	for _, st := range in.locs {
		total += len(st)
	}
	o := newOracle(total)
	id := 0
	for _, l := range in.ops {
		id++
		o.Event(id, l)
	}
	hb := in.hb()
	for _, st := range in.locs {
		node := func(j int) int { return id + 1 + j }
		lastW := -1
		for j, a := range st {
			if a.Write {
				lastW = j
			}
		}
		for j, a := range st {
			o.Event(node(j), a.Label)
			if lastW < 0 {
				continue
			}
			for k, p := range st[:j] {
				if (a.Write || p.Write) && (p.Op == a.Op || hb(p.Op, a.Op)) {
					o.Edge(node(k), node(j))
				}
			}
			if j > 0 && j <= lastW {
				o.Edge(node(j-1), node(j))
			}
		}
		id += len(st)
	}
	return o.Fingerprint()
}

// samePartition reports a failure unless a and b share a fingerprint
// exactly when they share an oracle fingerprint, and returns whether
// they share one.
func samePartition(t *testing.T, what string, a, b input) bool {
	t.Helper()
	got := a.fingerprint() == b.fingerprint()
	if want := oracleFingerprint(a) == oracleFingerprint(b); got != want {
		t.Fatalf("%s: fingerprints equal %v, oracle fingerprints equal %v\na: %+v\nb: %+v",
			what, got, want, a, b)
	}
	return got
}

// TestFingerprintMatchesOracle is the partition differential on random
// executions: each is paired with a random mutation of itself, some
// class-preserving and some not, and with the previous execution.
// Both outcomes must occur often, or the check proved little.
func TestFingerprintMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	var equal, split int
	prev := randomInput(rng)
	for trial := 0; trial < 4000; trial++ {
		in := randomInput(rng)
		for _, other := range []input{mutate(in, rng), mutate(mutate(in, rng), rng), prev} {
			if samePartition(t, fmt.Sprintf("trial %d", trial), in, other) {
				equal++
			} else {
				split++
			}
		}
		prev = in
	}
	if equal < 1000 || split < 1000 {
		t.Fatalf("%d equal and %d split pairs: too few of one kind", equal, split)
	}
}

// TestFingerprintMatchesOracleSessions runs the partition differential
// over the committed golden sessions, the real HB graphs the fuzzer also
// seeds from: each session against its relabeling, its mutations and the
// other sessions.
func TestFingerprintMatchesOracleSessions(t *testing.T) {
	paths, _ := filepath.Glob("../../testdata/golden/*.json")
	rng := rand.New(rand.NewSource(5))
	var sessions []input
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		in, ok := fromSession(data)
		if !ok || len(in.locs) == 0 {
			continue
		}
		if !samePartition(t, path+" relabeled", in, in.relabel(randomPerm(rng, in.n))) {
			t.Fatalf("%s: relabeling split the class", path)
		}
		for k := 0; k < 20; k++ {
			samePartition(t, path+" mutated", in, mutate(in, rng))
		}
		for _, other := range sessions {
			samePartition(t, path, in, other)
		}
		sessions = append(sessions, in)
	}
	if len(sessions) == 0 {
		t.Fatal("no golden sessions found")
	}
}

package canon

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"testing"
)

// oracleBuilder is the original per-node-slice Builder, kept verbatim as
// the differential oracle for the flat-list Builder: every fingerprint
// the production code computes must equal this one's, byte for byte,
// on any input (DAG or not).
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

// builder is what the session and random-input feeders need from both
// the production Builder and the oracle.
type builder interface {
	Edge(from, to int)
	Event(id int, label string)
}

// hostileInput is a random op list over n nodes: edges in both
// directions (so cycles), duplicate edges, self edges and IDs outside
// 1..n, and events drawn from a small label pool so labels repeat on
// one node and across nodes.
type hostileInput struct {
	n      int
	edges  [][2]int
	events []struct {
		id    int
		label string
	}
}

func randomHostile(rng *rand.Rand) hostileInput {
	in := hostileInput{n: rng.Intn(40)}
	id := func() int { return rng.Intn(in.n+3) - 1 } // -1 .. n+1
	labels := []string{"", "w var a.x [plain]", "r var a.x [plain]", "w elem #dw [elem-insert]",
		"op handler click #?", "r var obj?.value [form-field]", "x\x00y"}
	for k := rng.Intn(4 * (in.n + 1)); k > 0; k-- {
		e := [2]int{id(), id()}
		switch rng.Intn(8) {
		case 0: // acyclic-looking forward edge, duplicated
			if e[0] > e[1] {
				e[0], e[1] = e[1], e[0]
			}
			in.edges = append(in.edges, e)
		case 1:
			e[1] = e[0] // self edge
		}
		in.edges = append(in.edges, e)
	}
	for k := rng.Intn(2 * (in.n + 1)); k > 0; k-- {
		in.events = append(in.events, struct {
			id    int
			label string
		}{id(), labels[rng.Intn(len(labels))]})
	}
	return in
}

func (in hostileInput) feed(b builder) {
	for _, e := range in.edges {
		b.Edge(e[0], e[1])
	}
	for _, ev := range in.events {
		b.Event(ev.id, ev.label)
	}
}

// TestFingerprintMatchesOracle is the byte-identity differential: on
// random inputs — acyclic and cyclic, with duplicate, self and
// out-of-range edges and repeated labels — the flat-list Builder's
// fingerprint equals the original Builder's. Every third input has its
// edges turned forward, making it a DAG like the ones the sweep drivers
// build, often with nodes of high in-degree.
func TestFingerprintMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 3000; trial++ {
		in := randomHostile(rng)
		if trial%3 == 0 {
			// Forward-only: a DAG, often with high in-degree.
			for k := range in.edges {
				if e := &in.edges[k]; e[0] > e[1] {
					e[0], e[1] = e[1], e[0]
				}
			}
		}
		b, o := New(in.n), newOracle(in.n)
		in.feed(b)
		in.feed(o)
		want := o.Fingerprint()
		if got := b.Fingerprint(); got != want {
			t.Fatalf("trial %d: fingerprint %s, oracle %s\ninput: %+v", trial, got, want, in)
		}
		if again := b.Fingerprint(); again != want {
			t.Fatalf("trial %d: second call drifted", trial)
		}
	}
}

// TestFingerprintMatchesOracleSessions runs the differential over the
// committed golden sessions, the real HB graphs the fuzzer also seeds
// from.
func TestFingerprintMatchesOracleSessions(t *testing.T) {
	paths, _ := filepath.Glob("../../testdata/golden/*.json")
	checked := 0
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var doc sessionDoc
		if json.Unmarshal(data, &doc) != nil || len(doc.Ops) == 0 {
			continue
		}
		b, o := New(len(doc.Ops)), newOracle(len(doc.Ops))
		feedSession(b, doc, nil)
		feedSession(o, doc, nil)
		if got, want := b.Fingerprint(), o.Fingerprint(); got != want {
			t.Errorf("%s: fingerprint %s, oracle %s", path, got, want)
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no golden sessions found")
	}
}

package canon

import (
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// input is a test-side execution: dispatch labels, location streams and
// a happens-before DAG over operations 1..n. Two streams may carry the
// same labels, as two locations whose names normalize alike do.
type input struct {
	n     int
	edges [][2]int32
	ops   []string
	locs  [][]Access
}

// hb returns the happens-before predicate of in's DAG: reachability
// along its edges, ignoring out-of-range ones, searched once per source
// operation that is asked about. An operation never happens before
// itself; on a cyclic edge list both directions may hold.
func (in input) hb() func(x, y int32) bool {
	succs := make([][]int32, in.n+1)
	for _, e := range in.edges {
		if e[0] >= 1 && e[1] >= 1 && int(e[0]) <= in.n && int(e[1]) <= in.n && e[0] != e[1] {
			succs[e[0]] = append(succs[e[0]], e[1])
		}
	}
	reach := make([][]bool, in.n+1)
	return func(x, y int32) bool {
		if x == y || x < 1 || y < 1 || int(x) > in.n || int(y) > in.n {
			return false
		}
		if reach[x] == nil {
			reach[x] = make([]bool, in.n+1)
			stack := append([]int32(nil), succs[x]...)
			for len(stack) > 0 {
				y := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				if !reach[x][y] {
					reach[x][y] = true
					stack = append(stack, succs[y]...)
				}
			}
		}
		return reach[x][y]
	}
}

// feed adds in to b.
func (in input) feed(b *Builder) {
	for _, l := range in.ops {
		b.Op(l)
	}
	hb := in.hb()
	for _, st := range in.locs {
		b.Loc(st, hb)
	}
}

func (in input) fingerprint() string {
	var b Builder
	in.feed(&b)
	return b.Fingerprint()
}

// clone deep-copies in, so mutations leave the original intact.
func (in input) clone() input {
	out := input{n: in.n, edges: slices.Clone(in.edges), ops: slices.Clone(in.ops)}
	for _, st := range in.locs {
		out.locs = append(out.locs, slices.Clone(st))
	}
	return out
}

// relabel renumbers the operations by perm (perm[i-1] is op i's new ID).
func (in input) relabel(perm []int) input {
	out := in.clone()
	id := func(x int32) int32 {
		if x < 1 || int(x) > in.n {
			return x
		}
		return int32(perm[x-1])
	}
	for k := range out.edges {
		out.edges[k] = [2]int32{id(out.edges[k][0]), id(out.edges[k][1])}
	}
	for _, st := range out.locs {
		for j := range st {
			st[j].Op = id(st[j].Op)
		}
	}
	return out
}

var (
	testOpLabels  = []string{"op handler click #?", "op anchor load", "op user input #?"}
	testLocLabels = []string{"var a", "var obj?.x", "elem #dw"}
	testCtxs      = []string{"plain", "form-field"}
)

func testAccess(write bool, loc, ctx string, op int32) Access {
	kind := "read"
	if write {
		kind = "write"
	}
	return Access{Label: kind + " " + loc + " [" + ctx + "]", Write: write, Op: op}
}

// randomInput draws a small execution whose locations often share
// labels and whose DAG orders about a third of the operation pairs.
func randomInput(rng *rand.Rand) input {
	in := input{n: 1 + rng.Intn(8)}
	for j := 2; j <= in.n; j++ {
		for i := 1; i < j; i++ {
			if rng.Intn(3) == 0 {
				in.edges = append(in.edges, [2]int32{int32(i), int32(j)})
			}
		}
	}
	for k := rng.Intn(4); k > 0; k-- {
		in.ops = append(in.ops, testOpLabels[rng.Intn(len(testOpLabels))])
	}
	for k := rng.Intn(5); k > 0; k-- {
		loc := testLocLabels[rng.Intn(len(testLocLabels))]
		var st []Access
		for a := rng.Intn(8); a > 0; a-- {
			st = append(st, testAccess(rng.Intn(2) == 0, loc,
				testCtxs[rng.Intn(len(testCtxs))], int32(1+rng.Intn(in.n))))
		}
		in.locs = append(in.locs, st)
	}
	return in
}

func randomPerm(rng *rand.Rand, n int) []int {
	p := rng.Perm(n)
	for i := range p {
		p[i]++
	}
	return p
}

// mutate returns a copy of in with one random change: some never change
// the class (relabeling, reordering locations or dispatch labels), the
// rest may (edges, kinds, operations, stream order, which stream holds
// an access).
func mutate(in input, rng *rand.Rand) input {
	out := in.clone()
	pick := func() []Access {
		if len(out.locs) == 0 {
			return nil
		}
		return out.locs[rng.Intn(len(out.locs))]
	}
	switch rng.Intn(8) {
	case 0:
		return in.relabel(randomPerm(rng, in.n))
	case 1:
		rng.Shuffle(len(out.locs), func(i, j int) { out.locs[i], out.locs[j] = out.locs[j], out.locs[i] })
		rng.Shuffle(len(out.ops), func(i, j int) { out.ops[i], out.ops[j] = out.ops[j], out.ops[i] })
	case 2: // drop an edge
		if len(out.edges) > 0 {
			k := rng.Intn(len(out.edges))
			out.edges = slices.Delete(out.edges, k, k+1)
		}
	case 3: // add an edge, possibly closing a cycle
		out.edges = append(out.edges, [2]int32{int32(1 + rng.Intn(in.n)), int32(1 + rng.Intn(in.n))})
	case 4: // flip a kind
		if st := pick(); len(st) > 0 {
			a := &st[rng.Intn(len(st))]
			if rest, ok := strings.CutPrefix(a.Label, "read "); ok {
				a.Label, a.Write = "write "+rest, true
			} else if rest, ok := strings.CutPrefix(a.Label, "write "); ok {
				a.Label, a.Write = "read "+rest, false
			}
		}
	case 5: // move an access to another operation
		if st := pick(); len(st) > 0 {
			st[rng.Intn(len(st))].Op = int32(1 + rng.Intn(in.n))
		}
	case 6: // swap two neighbors in a stream
		if st := pick(); len(st) > 1 {
			j := rng.Intn(len(st) - 1)
			st[j], st[j+1] = st[j+1], st[j]
		}
	case 7: // move a trailing access to another stream
		if len(out.locs) > 1 {
			i, j := rng.Intn(len(out.locs)), rng.Intn(len(out.locs))
			if st := out.locs[i]; i != j && len(st) > 0 {
				out.locs[j] = append(out.locs[j], st[len(st)-1])
				out.locs[i] = st[:len(st)-1]
			}
		}
	}
	return out
}

// TestFingerprintDeterministic: the fingerprint is a pure function of
// the execution — recomputing it, refeeding a Reset builder, and feeding
// the locations and dispatch labels in another order all give the same
// hash.
func TestFingerprintDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var reused Builder
	for trial := 0; trial < 200; trial++ {
		in := randomInput(rng)
		var b Builder
		in.feed(&b)
		fp := b.Fingerprint()
		if again := b.Fingerprint(); again != fp {
			t.Fatalf("trial %d: second Fingerprint call drifted: %s vs %s", trial, fp, again)
		}
		reused.Reset()
		in.feed(&reused)
		if got := reused.Fingerprint(); got != fp {
			t.Fatalf("trial %d: a Reset builder gave %s, a fresh one %s", trial, got, fp)
		}
		shuffled := in.clone()
		rng.Shuffle(len(shuffled.locs), func(i, j int) {
			shuffled.locs[i], shuffled.locs[j] = shuffled.locs[j], shuffled.locs[i]
		})
		rng.Shuffle(len(shuffled.ops), func(i, j int) {
			shuffled.ops[i], shuffled.ops[j] = shuffled.ops[j], shuffled.ops[i]
		})
		if got := shuffled.fingerprint(); got != fp {
			t.Fatalf("trial %d: insertion order changed the fingerprint", trial)
		}
	}
}

// TestFingerprintIsomorphismInvariant: renumbering the operations — the
// IDs a schedule happens to hand out — never changes the fingerprint.
func TestFingerprintIsomorphismInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 200; trial++ {
		in := randomInput(rng)
		fp := in.fingerprint()
		for k := 0; k < 4; k++ {
			perm := randomPerm(rng, in.n)
			if got := in.relabel(perm).fingerprint(); got != fp {
				t.Fatalf("trial %d perm %v: fingerprint changed under relabeling: %s vs %s",
					trial, perm, got, fp)
			}
		}
	}
}

// TestFingerprintFlipSensitive: flipping an ordered racy pair — the same
// write and read with the happens-before order reversed — moves the
// execution to another class, and so does removing the order (making the
// pair race).
func TestFingerprintFlipSensitive(t *testing.T) {
	w := testAccess(true, "var a", "plain", 1)
	r := testAccess(false, "var a", "plain", 2)
	fwd := input{n: 2, edges: [][2]int32{{1, 2}}, locs: [][]Access{{w, r}}}.fingerprint()
	rev := input{n: 2, edges: [][2]int32{{2, 1}}, locs: [][]Access{{r, w}}}.fingerprint()
	free := input{n: 2, locs: [][]Access{{w, r}}}.fingerprint()
	if fwd == rev {
		t.Error("write→read and read→write orders share a fingerprint")
	}
	if fwd == free || rev == free {
		t.Error("ordered and unordered conflicting pairs share a fingerprint")
	}
}

// TestFingerprintIrrelevantTransparent: only the happens-before answers
// between accessing operations count — ordering a write before a read
// directly, through a chain of operations that access nothing, or
// through a diamond of them is one class.
func TestFingerprintIrrelevantTransparent(t *testing.T) {
	w := testAccess(true, "var a", "plain", 1)
	r := func(op int32) Access { return testAccess(false, "var a", "plain", op) }
	direct := input{n: 2, edges: [][2]int32{{1, 2}}, locs: [][]Access{{w, r(2)}}}.fingerprint()
	twoHop := input{n: 4, edges: [][2]int32{{1, 2}, {2, 3}, {3, 4}}, locs: [][]Access{{w, r(4)}}}.fingerprint()
	diamond := input{n: 4, edges: [][2]int32{{1, 2}, {1, 3}, {2, 4}, {3, 4}}, locs: [][]Access{{w, r(4)}}}.fingerprint()
	if twoHop != direct || diamond != direct {
		t.Errorf("plumbing operations changed the class: direct=%s twoHop=%s diamond=%s",
			direct, twoHop, diamond)
	}
}

// TestFingerprintAncestorMultiplicity: two writers with identical labels
// are not the same writer. A read ordered after both is in another class
// than one ordered after only one of them (there the other still races
// with it).
func TestFingerprintAncestorMultiplicity(t *testing.T) {
	st := []Access{
		testAccess(true, "var a", "plain", 1),
		testAccess(true, "var a", "plain", 2),
		testAccess(false, "var a", "plain", 3),
	}
	both := input{n: 3, edges: [][2]int32{{1, 3}, {2, 3}}, locs: [][]Access{st}}.fingerprint()
	one := input{n: 3, edges: [][2]int32{{1, 3}}, locs: [][]Access{st}}.fingerprint()
	if both == one {
		t.Error("ordering after both identical writers vs one collapsed into the same class")
	}
}

// TestFingerprintEventMultiset: the same access or dispatch label twice
// is a different multiset than once.
func TestFingerprintEventMultiset(t *testing.T) {
	r := testAccess(false, "var a", "plain", 1)
	once := input{n: 1, locs: [][]Access{{r}}}.fingerprint()
	twice := input{n: 1, locs: [][]Access{{r, r}}}.fingerprint()
	apart := input{n: 1, locs: [][]Access{{r}, {r}}}.fingerprint()
	if once == twice || once == apart {
		t.Error("access multiplicity does not enter the fingerprint")
	}
	op := testOpLabels[0]
	if (input{ops: []string{op}}).fingerprint() == (input{ops: []string{op, op}}).fingerprint() {
		t.Error("dispatch label multiplicity does not enter the fingerprint")
	}
}

// TestFingerprintFlatMultiset: node items are pooled across locations.
// Two locations whose names normalize alike each hold a write; a read
// ordered after neither sits at the first in one run and at the second
// in the other. The DAG canonicalizer puts both runs in one class, and
// so must the fingerprint.
func TestFingerprintFlatMultiset(t *testing.T) {
	w1 := testAccess(true, "var obj?.x", "plain", 1)
	w2 := testAccess(true, "var obj?.x", "plain", 2)
	r := testAccess(false, "var obj?.x", "plain", 3)
	atFirst := input{n: 3, locs: [][]Access{{w1, r}, {w2}}}
	atSecond := input{n: 3, locs: [][]Access{{w1}, {w2, r}}}
	if atFirst.fingerprint() != atSecond.fingerprint() {
		t.Error("a predecessor-less read split two runs by which same-named location holds it")
	}
	if oracleFingerprint(atFirst) != oracleFingerprint(atSecond) {
		t.Error("the oracle no longer merges the two runs")
	}
}

// TestFingerprintRobustInputs: empty builders and streams, operations
// outside the DAG and a contradictory happens-before predicate must not
// panic and must stay deterministic.
func TestFingerprintRobustInputs(t *testing.T) {
	var empty Builder
	if empty.Fingerprint() != (input{}).fingerprint() {
		t.Error("empty fingerprints differ")
	}
	var b Builder
	b.Loc(nil, nil)
	b.Op("")
	both := func(x, y int32) bool { return true } // cyclic: x before y and y before x
	st := []Access{
		testAccess(true, "var a", "plain", -1),
		testAccess(false, "var a", "plain", 99),
		{Label: "", Write: true, Op: 0},
		{Label: "x\x00y", Op: 0},
	}
	b.Loc(st, both)
	fp := b.Fingerprint()
	if fp == "" || fp != b.Fingerprint() {
		t.Errorf("hostile input not deterministic: %s vs %s", fp, b.Fingerprint())
	}
	b.Reset()
	if b.Fingerprint() != empty.Fingerprint() {
		t.Error("Reset left items behind")
	}
}

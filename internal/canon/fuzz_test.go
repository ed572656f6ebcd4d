package canon

import (
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

// sessionDoc mirrors the fields of an exported webracer session
// (session.go) that carry the happens-before structure — just enough to
// rebuild an execution without importing the root package.
type sessionDoc struct {
	Ops []struct {
		ID    int32  `json:"id"`
		Kind  string `json:"kind"`
		Label string `json:"label"`
	} `json:"ops"`
	Edges [][2]int32 `json:"edges"`
	Races []struct {
		Prior   sessionAccess `json:"prior"`
		Current sessionAccess `json:"current"`
	} `json:"races"`
	Trace []sessionAccess `json:"trace"`
}

type sessionAccess struct {
	Kind string `json:"kind"`
	Loc  string `json:"loc"`
	Op   int32  `json:"op"`
	Ctx  string `json:"ctx"`
}

// fromSession rebuilds an execution from an exported session document:
// its dispatch operations, its edges as the DAG, and its trace (or, for
// sessions exported without one, its races' accesses) grouped by
// location. It reports false when data is not a session with operations.
func fromSession(data []byte) (input, bool) {
	var doc sessionDoc
	if json.Unmarshal(data, &doc) != nil || len(doc.Ops) == 0 || len(doc.Ops) > 1<<10 ||
		len(doc.Edges) > 1<<13 || len(doc.Trace)+2*len(doc.Races) > 1<<12 {
		return input{}, false
	}
	in := input{n: len(doc.Ops), edges: doc.Edges}
	for _, o := range doc.Ops {
		switch o.Kind {
		case "handler", "anchor", "join", "user":
			in.ops = append(in.ops, "op "+o.Kind+" "+o.Label)
		}
	}
	trace := doc.Trace
	if len(trace) == 0 {
		for _, r := range doc.Races {
			trace = append(trace, r.Prior, r.Current)
		}
	}
	byLoc := map[string]int{}
	for _, a := range trace {
		i, ok := byLoc[a.Loc]
		if !ok {
			i = len(in.locs)
			byLoc[a.Loc] = i
			in.locs = append(in.locs, nil)
		}
		in.locs[i] = append(in.locs[i], Access{
			Label: a.Kind + " " + a.Loc + " [" + a.Ctx + "]",
			Write: a.Kind == "write",
			Op:    a.Op,
		})
	}
	return in, true
}

// fromProgram decodes arbitrary bytes as a small execution, so that
// byte-level mutation explores streams directly: the operation count,
// the DAG's forward edges, the dispatch labels, then per location its
// label and accesses, each access one byte (kind, context, operation).
// Missing bytes read as zero.
func fromProgram(data []byte) input {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	in := input{n: 1 + next()%8}
	for j := 2; j <= in.n; j++ {
		edges := next()
		for i := 1; i < j; i++ {
			if edges>>(i-1)&1 == 1 {
				in.edges = append(in.edges, [2]int32{int32(i), int32(j)})
			}
		}
	}
	for k := next() % 4; k > 0; k-- {
		in.ops = append(in.ops, testOpLabels[next()%len(testOpLabels)])
	}
	for k := next() % 6; k > 0; k-- {
		loc := testLocLabels[next()%len(testLocLabels)]
		var st []Access
		for a := next() % 10; a > 0; a-- {
			b := next()
			st = append(st, testAccess(b&1 == 1, loc, testCtxs[b>>1&1], int32(1+(b>>2)%in.n)))
		}
		in.locs = append(in.locs, st)
	}
	return in
}

// FuzzCanonicalFingerprint fuzzes the partition contract on random
// location streams — kinds, contexts, operations and a random HB DAG,
// decoded from the bytes by fromProgram, or a whole exported session for
// the seed corpus (the repo's golden sessions, so real HB graphs anchor
// the search). Each input is paired with a mutation of itself drawn from
// mutSeed: the two must share a fingerprint exactly when they share the
// DAG canonicalizer's. Fingerprinting is also total (no panics, even on
// cyclic or out-of-range edges), deterministic and invariant under
// relabeling the operations.
func FuzzCanonicalFingerprint(f *testing.F) {
	seeds, _ := filepath.Glob("../../testdata/golden/*.json")
	for _, path := range seeds {
		if data, err := os.ReadFile(path); err == nil {
			f.Add(data, uint64(1))
		}
	}
	f.Add([]byte("\x05\x01\x03\x07\x0f\x02\x00\x01\x02\x00\x06\x01\x05\x12\x21\x34\x40\x03"), uint64(7))
	f.Fuzz(func(t *testing.T, data []byte, mutSeed uint64) {
		in, ok := fromSession(data)
		if !ok {
			in = fromProgram(data)
		}
		fp := in.fingerprint()
		if again := in.fingerprint(); again != fp {
			t.Fatalf("recomputation drifted: %s vs %s", fp, again)
		}
		rng := rand.New(rand.NewSource(int64(mutSeed)))
		if got := in.relabel(randomPerm(rng, in.n)).fingerprint(); got != fp {
			t.Fatalf("fingerprint changed under relabeling: %s vs %s", got, fp)
		}
		samePartition(t, "mutation", in, mutate(in, rng))
	})
}

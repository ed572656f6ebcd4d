package serve

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"webracer"
	"webracer/internal/sitegen"
)

// TestSweepSeedsParseMemo: the unpruned seeds mode shares one parse memo
// across a request's runs. Its response is byte-identical at 1 and 4
// sweep workers, and its per-seed counts and location union equal a
// fold of plain runs that parse without a memo.
func TestSweepSeedsParseMemo(t *testing.T) {
	const body = `{"spec":{"kind":"sched","index":1},"seeds":6,"seed":3}`
	var bodies [][]byte
	for _, workers := range []int{1, 4} {
		_, ts := newTestServer(t, Config{Workers: 1, SweepWorkers: workers})
		resp, b := post(t, ts, "/v1/sweep", body)
		if resp.StatusCode != 200 {
			t.Fatalf("sweep-workers=%d: %d %s", workers, resp.StatusCode, b)
		}
		bodies = append(bodies, b)
	}
	if !bytes.Equal(bodies[0], bodies[1]) {
		t.Fatalf("sweep differs across sweep workers:\n1: %s\n4: %s", bodies[0], bodies[1])
	}
	var got SweepResponse
	if err := json.Unmarshal(bodies[0], &got); err != nil {
		t.Fatal(err)
	}

	site := sitegen.Generate(sitegen.SchedSpec(1))
	var perSeed []int
	locations := map[string]int{}
	for i := 0; i < 6; i++ {
		res := webracer.RunConfig(site, webracer.DefaultConfig(3+int64(i)*7919))
		perSeed = append(perSeed, len(res.Reports))
		seen := map[string]bool{}
		for _, r := range res.Reports {
			if key := r.Loc.String(); !seen[key] {
				seen[key] = true
				locations[key]++
			}
		}
	}
	if !reflect.DeepEqual(got.PerSeed, perSeed) || !reflect.DeepEqual(got.Locations, locations) {
		t.Fatalf("sweep differs from plain runs:\n got %v %v\nwant %v %v",
			got.PerSeed, got.Locations, perSeed, locations)
	}
}

package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"reflect"
	"strings"
	"testing"

	"webracer"
	"webracer/internal/sitegen"
)

// TestPrunedSweep pins the prune field's service semantics: a pruned
// sweep returns the unpruned sweep's aggregate exactly (modulo the added
// classes summary), occupies its own cache entry, repeats as a cache
// hit, and surfaces its class counters on /metrics. The schedule-
// dependent sched spec actually prunes: with 6 seeds some must collapse.
func TestPrunedSweep(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	const body = `{"spec":{"kind":"sched","index":0},"seeds":6}`
	const pruned = `{"spec":{"kind":"sched","index":0},"seeds":6,"prune":true}`

	_, plainB := post(t, ts, "/v1/sweep", body)
	var plain SweepResponse
	if err := json.Unmarshal(plainB, &plain); err != nil {
		t.Fatal(err)
	}

	resp, prunedB := post(t, ts, "/v1/sweep", pruned)
	if resp.StatusCode != 200 {
		t.Fatalf("pruned sweep: %d %s", resp.StatusCode, prunedB)
	}
	if h := resp.Header.Get("X-Webracer-Cache"); h != "miss" {
		t.Fatalf("pruned sweep collided with the unpruned cache entry (%q)", h)
	}
	var pr SweepResponse
	if err := json.Unmarshal(prunedB, &pr); err != nil {
		t.Fatal(err)
	}
	if pr.Classes == nil {
		t.Fatalf("pruned sweep has no classes summary: %s", prunedB)
	}
	if pr.Classes.Executions != 6 || pr.Classes.Distinct+pr.Classes.Pruned != 6 {
		t.Fatalf("class accounting: %+v", pr.Classes)
	}
	if pr.Classes.Pruned == 0 {
		t.Fatalf("sched spec pruned nothing: %+v", pr.Classes)
	}
	// Everything except the job id and the classes summary must match the
	// unpruned aggregate.
	pr.ID, pr.Classes = plain.ID, nil
	prB, _ := json.Marshal(pr)
	plB, _ := json.Marshal(plain)
	if !bytes.Equal(prB, plB) {
		t.Fatalf("pruned aggregate differs:\npruned:   %s\nunpruned: %s", prB, plB)
	}

	resp, warm := post(t, ts, "/v1/sweep", pruned)
	if h := resp.Header.Get("X-Webracer-Cache"); h != "hit" {
		t.Fatalf("pruned repeat: X-Webracer-Cache = %q", h)
	}
	if !bytes.Equal(warm, prunedB) {
		t.Fatal("pruned repeat differs from cold run")
	}

	_, mb := get(t, ts, "/metrics")
	for _, name := range []string{"explore.classes.executions", "explore.classes.distinct", "explore.classes.pruned"} {
		if !strings.Contains(string(mb), name) {
			t.Errorf("/metrics missing %s after a pruned sweep", name)
		}
	}
}

// TestPrunedSweepDelayOne: the delay-one mode prunes too, with the same
// aggregate-equality contract.
func TestPrunedSweepDelayOne(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	_, plainB := post(t, ts, "/v1/sweep", `{"site":`+racySite+`,"mode":"delay-one"}`)
	resp, prunedB := post(t, ts, "/v1/sweep", `{"site":`+racySite+`,"mode":"delay-one","prune":true}`)
	if resp.StatusCode != 200 {
		t.Fatalf("pruned delay-one: %d %s", resp.StatusCode, prunedB)
	}
	var plain, pr SweepResponse
	if err := json.Unmarshal(plainB, &plain); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(prunedB, &pr); err != nil {
		t.Fatal(err)
	}
	if pr.Classes == nil || pr.Classes.Executions != pr.Runs {
		t.Fatalf("delay-one class accounting: %+v runs %d", pr.Classes, pr.Runs)
	}
	pr.ID, pr.Classes = plain.ID, nil
	prB, _ := json.Marshal(pr)
	plB, _ := json.Marshal(plain)
	if !bytes.Equal(prB, plB) {
		t.Fatalf("pruned delay-one aggregate differs:\npruned:   %s\nunpruned: %s", prB, plB)
	}
}

// TestPruneDetectorAccepted: prune is a report for every detector. A
// pruned predictive or sampled sweep answers 200 with the unpruned
// sweep's body apart from classes, and its classes are the pairwise
// sweep's.
func TestPruneDetectorAccepted(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	const spec = `{"spec":{"kind":"sched","index":0},"seeds":6`
	sweep := func(extra string) SweepResponse {
		t.Helper()
		resp, b := post(t, ts, "/v1/sweep", spec+extra+`}`)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("sweep%s: %d %s", extra, resp.StatusCode, b)
		}
		var r SweepResponse
		if err := json.Unmarshal(b, &r); err != nil {
			t.Fatal(err)
		}
		return r
	}
	pairwise := sweep(`,"prune":true`)
	if pairwise.Classes == nil {
		t.Fatal("pairwise pruned sweep has no classes summary")
	}
	for _, det := range []string{"predictive", "sampled"} {
		plain := sweep(`,"detector":"` + det + `"`)
		pr := sweep(`,"prune":true,"detector":"` + det + `"`)
		if pr.Classes == nil || *pr.Classes != *pairwise.Classes {
			t.Errorf("%s: classes %+v, want the pairwise sweep's %+v", det, pr.Classes, *pairwise.Classes)
		}
		pr.ID, pr.Classes = plain.ID, nil
		prB, _ := json.Marshal(pr)
		plB, _ := json.Marshal(plain)
		if !bytes.Equal(prB, plB) {
			t.Errorf("%s: pruned sweep differs:\npruned:   %s\nunpruned: %s", det, prB, plB)
		}
	}
}

// budgetSweep resolves a sweep job on a page whose virtual-time budget
// the baseline just meets: the slow:index.html and slow:menus.js
// perturbations, and three of six seeds, trip it.
func budgetSweep(t *testing.T, mode string, prune bool) *resolved {
	t.Helper()
	site := sitegen.Generate(sitegen.SpecFor(1, 1))
	cfg := webracer.DefaultConfig(7)
	base := webracer.RunConfig(site, cfg)
	if base.Interrupted != "" {
		t.Fatalf("baseline interrupted: %s", base.Interrupted)
	}
	cfg.Browser.MaxVirtualTime = base.Browser.Clock() + 1
	return &resolved{kind: kindSweep, site: site, cfg: cfg, seeds: 6, mode: mode, prune: prune, key: "budget"}
}

// TestSweepDegradedNotCached: an unpruned delay-one sweep whose
// perturbation runs were interrupted is degraded, like its pruned twin:
// it names both runs and stays out of the cache.
func TestSweepDegradedNotCached(t *testing.T) {
	s, _ := newTestServer(t, Config{Workers: 1})
	body, cacheable, err := s.executeSweep(budgetSweep(t, "delay-one", false))
	if err != nil {
		t.Fatal(err)
	}
	if cacheable {
		t.Error("degraded delay-one sweep is cacheable")
	}
	var resp SweepResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	want := []string{"slow:index.html: virtual-time budget", "slow:menus.js: virtual-time budget"}
	if !reflect.DeepEqual(resp.Degraded, want) {
		t.Errorf("degraded = %q, want %q", resp.Degraded, want)
	}
}

// TestSweepDegradedTable: pruning and the sweep worker count change no
// byte of a degraded sweep's response but the classes summary, in
// either mode: every run is listed as "label: reason".
func TestSweepDegradedTable(t *testing.T) {
	for _, mode := range []string{"seeds", "delay-one"} {
		var want []byte
		for _, prune := range []bool{false, true} {
			for _, workers := range []int{1, 4} {
				s, _ := newTestServer(t, Config{Workers: 1, SweepWorkers: workers})
				body, cacheable, err := s.executeSweep(budgetSweep(t, mode, prune))
				if err != nil {
					t.Fatal(err)
				}
				var resp SweepResponse
				if err := json.Unmarshal(body, &resp); err != nil {
					t.Fatal(err)
				}
				if cacheable || len(resp.Degraded) == 0 {
					t.Errorf("%s prune=%v workers=%d: cacheable=%v degraded=%q",
						mode, prune, workers, cacheable, resp.Degraded)
				}
				if prune != (resp.Classes != nil) {
					t.Errorf("%s prune=%v workers=%d: classes %+v", mode, prune, workers, resp.Classes)
				}
				resp.Classes = nil
				got, _ := json.Marshal(resp)
				if want == nil {
					want = got
				} else if !bytes.Equal(got, want) {
					t.Errorf("%s prune=%v workers=%d:\n got %s\nwant %s", mode, prune, workers, got, want)
				}
			}
		}
	}
}

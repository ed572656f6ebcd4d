package webracer

import (
	"reflect"
	"strings"
	"testing"

	"webracer/internal/loader"
	"webracer/internal/sitegen"
)

func TestExploreSchedulesBaselineCovered(t *testing.T) {
	sweep, err := ExploreSchedulesParallel(demoSite(), DefaultConfig(1), ParallelConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if sweep.Runs != 1+len(demoSite().Resources) {
		t.Fatalf("runs = %d, want %d", sweep.Runs, 1+len(demoSite().Resources))
	}
	if len(sweep.Reports) == 0 {
		t.Fatal("sweep found no races at all")
	}
	// Every baseline race location is in the union.
	for _, r := range sweep.Baseline.Reports {
		if len(sweep.ByLocation[r.Loc.String()]) == 0 {
			t.Errorf("baseline race %s missing from the union", r.Loc)
		}
	}
	if sweep.Counts().Total() != len(sweep.Reports) {
		t.Error("counts disagree with the representative list")
	}
}

// TestExploreSchedulesExposesConditionalCode: a fallback branch only
// executes when an async script has not run yet; whether the baseline
// schedule takes that branch depends on latency, but the delay-one sweep
// (which makes app.js pathologically slow in one run) is guaranteed to.
// The branch's typeof read of appReady races with the async declaration.
func TestExploreSchedulesExposesConditionalCode(t *testing.T) {
	site := loader.NewSite("retry").
		Add("index.html", `
<script src="app.js" async="true"></script>
<script>
if (typeof appReady == 'undefined') {
  lateInit = 1;
}
</script>`).
		Add("app.js", `appReady = 1;`)
	cfg := DefaultConfig(1)
	sweep, err := ExploreSchedulesParallel(site, cfg, ParallelConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if sweep.Runs != 3 { // baseline + index.html-slow + app.js-slow
		t.Fatalf("runs = %d, want 3", sweep.Runs)
	}
	found := false
	for loc := range sweep.ByLocation {
		if strings.Contains(loc, "appReady") {
			found = true
		}
	}
	if !found {
		t.Errorf("appReady race never exposed across the sweep; locations: %v",
			locationKeys(sweep))
	}
	// The slow-app.js run must be among the runs (deterministic check of
	// the perturbation labels).
	sawSlowApp := false
	for _, labels := range sweep.ByLocation {
		for _, l := range labels {
			if l == "slow:app.js" {
				sawSlowApp = true
			}
		}
	}
	if len(sweep.Reports) > 0 && !sawSlowApp {
		t.Logf("note: no race attributed to the slow:app.js run (labels: %v)", sweep.ByLocation)
	}
}

func locationKeys(s *ScheduleSweep) []string {
	out := make([]string, 0, len(s.ByLocation))
	for k := range s.ByLocation {
		out = append(out, k)
	}
	return out
}

// TestSweepDegradedDelayOne: on a page whose virtual-time budget the
// baseline just meets, the slow:index.html and slow:menus.js
// perturbations trip it. The delay-one sweep must list both runs as
// degraded, pruned or not, at any worker count.
func TestSweepDegradedDelayOne(t *testing.T) {
	site := sitegen.Generate(sitegen.SpecFor(1, 1))
	cfg := DefaultConfig(7)
	base := RunConfig(site, cfg)
	if base.Interrupted != "" {
		t.Fatalf("baseline interrupted: %s", base.Interrupted)
	}
	cfg.Browser.MaxVirtualTime = base.Browser.Clock() + 1
	want := []string{"slow:index.html: virtual-time budget", "slow:menus.js: virtual-time budget"}
	for _, prune := range []bool{false, true} {
		for _, workers := range []int{1, 4} {
			sweep, err := ExploreSchedulesParallel(site, cfg, ParallelConfig{Workers: workers, Prune: prune})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(sweep.Degraded, want) {
				t.Errorf("prune=%v workers=%d: Degraded = %q, want %q", prune, workers, sweep.Degraded, want)
			}
		}
	}
}

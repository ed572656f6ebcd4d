package race_test

import (
	"fmt"
	"testing"

	"webracer"
	"webracer/internal/fault"
	"webracer/internal/hb"
	"webracer/internal/race"
	"webracer/internal/sitegen"
)

// pageRuns are the recorded executions of the equivalence battery: corpus,
// schedule-dependent and fault pages (the fault pages under a fault plan,
// so their error paths run) and one §6-scale stress page.
func pageRuns() []struct {
	name string
	spec sitegen.Spec
	plan *fault.Plan
} {
	type run = struct {
		name string
		spec sitegen.Spec
		plan *fault.Plan
	}
	var runs []run
	for i := 0; i < 6; i++ {
		runs = append(runs, run{fmt.Sprintf("corpus%d", i), sitegen.SpecFor(1, i), nil})
	}
	for i := 0; i < 3; i++ {
		runs = append(runs, run{fmt.Sprintf("sched%d", i), sitegen.SchedSpec(i), nil})
		plan := fault.ForSeed(1, []int{7, 14, 15}[i])
		runs = append(runs, run{fmt.Sprintf("fault%d", i), sitegen.FaultSpec(i), &plan})
	}
	return append(runs, run{"stress0", sitegen.StressSpec(0), nil})
}

// TestShadowMatchesMapOraclesOnPages replays recorded page executions
// through every detector variant and its map-based oracle over the
// graph, Clocks and LiveClocks oracles, then runs each page again with
// both sides riding the browser's live oracle as it grows, and requires
// identical oracle queries, reports, counters and state counts
// throughout.
func TestShadowMatchesMapOraclesOnPages(t *testing.T) {
	for _, r := range pageRuns() {
		if testing.Short() && r.name == "stress0" {
			continue
		}
		site := sitegen.Generate(r.spec)
		cfg := webracer.DefaultConfig(7)
		cfg.Fault = r.plan
		cfg.RecordTrace = true
		res := webracer.RunConfig(site, cfg)
		if len(res.Browser.Trace()) == 0 {
			t.Fatalf("%s: recorded no accesses", r.name)
		}
		race.CheckReplayEquivalence(t, r.name, res.Browser.Trace(), res.Browser.HB)

		var ls *race.Lockstep
		cfg.RecordTrace = false
		cfg.Browser.Detector = func(g *hb.Graph) race.Detector {
			live := hb.NewLiveClocks()
			g.Mirror = live
			ls = race.NewLockstep(t, r.name+"/lockstep", live)
			return ls
		}
		webracer.RunConfig(site, cfg)
		ls.Check()
	}
}

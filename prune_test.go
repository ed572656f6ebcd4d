package webracer

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"testing"

	"webracer/internal/fault"
	"webracer/internal/loader"
	"webracer/internal/sitegen"
)

// pruneCorpus is the differential battery's site set: the two
// schedule-dependent sched specs (where pruning should collapse most
// seeds), two fault-corpus pages, and one stress page, per the
// acceptance bar "byte-identical on the sched, fault and stress corpora
// at workers 1 vs 4".
func pruneCorpus() []struct {
	name  string
	site  *loader.Site
	seeds int
} {
	return []struct {
		name  string
		site  *loader.Site
		seeds int
	}{
		{"sched-00", sitegen.Generate(sitegen.SchedSpec(0)), 16},
		{"sched-01", sitegen.Generate(sitegen.SchedSpec(1)), 16},
		{"fault-00", sitegen.Generate(sitegen.FaultSpec(0)), 8},
		{"fault-01", sitegen.Generate(sitegen.FaultSpec(1)), 8},
		{"stress-00", sitegen.Generate(sitegen.StressSpec(0)), 4},
	}
}

// TestPruneSeedSweepIdentical is the pruned-vs-unpruned differential:
// for every corpus site the pruned seed sweep must marshal to exactly
// the unpruned sweep's bytes — same location union, same per-seed
// counts — at workers 1 and 4, while the class stats themselves are
// worker-count independent.
func TestPruneSeedSweepIdentical(t *testing.T) {
	for _, tc := range pruneCorpus() {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig(1)
			plain, err := RunSeedsParallel(tc.site, cfg, tc.seeds, ParallelConfig{Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			want, err := json.Marshal(plain)
			if err != nil {
				t.Fatal(err)
			}
			var stats [2]ClassStats
			for wi, workers := range []int{1, 4} {
				pruned, err := RunSeedsParallel(tc.site, cfg, tc.seeds,
					ParallelConfig{Workers: workers, Prune: true, Classes: &stats[wi]})
				if err != nil {
					t.Fatal(err)
				}
				got, err := json.Marshal(pruned)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					t.Errorf("workers=%d: pruned sweep differs from unpruned:\npruned:   %s\nunpruned: %s",
						workers, got, want)
				}
				if stats[wi].Executions != tc.seeds {
					t.Errorf("workers=%d: executions = %d, want %d", workers, stats[wi].Executions, tc.seeds)
				}
			}
			if stats[0] != stats[1] {
				t.Errorf("class stats differ across worker counts: %+v vs %+v", stats[0], stats[1])
			}
			t.Logf("%s: %d executions, %d classes, %d pruned", tc.name,
				stats[0].Executions, stats[0].Distinct, stats[0].Pruned)
		})
	}
}

// TestPruneSeedSweepSavesHalf pins the sched corpus's equivalence: at
// least half of a 16-seed sweep's executions repeat an explored class.
func TestPruneSeedSweepSavesHalf(t *testing.T) {
	for i := 0; i < 2; i++ {
		site := sitegen.Generate(sitegen.SchedSpec(i))
		var stats ClassStats
		if _, err := RunSeedsParallel(site, DefaultConfig(1), 16,
			ParallelConfig{Workers: 4, Prune: true, Classes: &stats}); err != nil {
			t.Fatal(err)
		}
		reps := stats.Executions - stats.Pruned
		if 2*reps > stats.Executions {
			t.Errorf("sched-%02d: %d class representatives for %d executions; want ≤ 50%%",
				i, reps, stats.Executions)
		}
	}
}

// TestPruneScheduleSweepIdentical runs the delay-one sweep pruned and
// unpruned on the paper figures and a sched spec: ByLocation,
// NewlyExposed, the representative Reports and the baseline's reports
// must match exactly at workers 1 and 4, and at least the duplicated
// classes must actually prune.
func TestPruneScheduleSweepIdentical(t *testing.T) {
	sites := []*loader.Site{
		sitegen.Fig1(),
		sitegen.Fig4(),
		sitegen.Generate(sitegen.SchedSpec(0)),
	}
	for _, site := range sites {
		t.Run(site.Name, func(t *testing.T) {
			cfg := DefaultConfig(1)
			plain, err := ExploreSchedulesParallel(site, cfg, ParallelConfig{Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 4} {
				var stats ClassStats
				pruned, err := ExploreSchedulesParallel(site, cfg,
					ParallelConfig{Workers: workers, Prune: true, Classes: &stats})
				if err != nil {
					t.Fatal(err)
				}
				if pruned.Runs != plain.Runs {
					t.Errorf("workers=%d: runs %d vs %d", workers, pruned.Runs, plain.Runs)
				}
				if !reflect.DeepEqual(pruned.ByLocation, plain.ByLocation) {
					t.Errorf("workers=%d: ByLocation differs:\npruned:   %v\nunpruned: %v",
						workers, pruned.ByLocation, plain.ByLocation)
				}
				if !reflect.DeepEqual(pruned.NewlyExposed, plain.NewlyExposed) {
					t.Errorf("workers=%d: NewlyExposed differs: %v vs %v",
						workers, pruned.NewlyExposed, plain.NewlyExposed)
				}
				if !reflect.DeepEqual(pruned.Reports, plain.Reports) {
					t.Errorf("workers=%d: representative Reports differ", workers)
				}
				if !reflect.DeepEqual(pruned.Baseline.Reports, plain.Baseline.Reports) {
					t.Errorf("workers=%d: baseline reports differ", workers)
				}
				if stats.Executions != plain.Runs {
					t.Errorf("workers=%d: executions %d, want %d", workers, stats.Executions, plain.Runs)
				}
			}
		})
	}
}

// TestPruneFaultSweepIdentical exercises pruning under a fault plan: the
// Env annotation and the fault-gated race set must come out unchanged.
func TestPruneFaultSweepIdentical(t *testing.T) {
	site := sitegen.Generate(sitegen.FaultSpec(0))
	cfg := DefaultConfig(1)
	plan := fault.Plan{Seed: 3, DropProb: 0.5}
	cfg.Fault = &plan
	plain, err := RunSeedsParallel(site, cfg, 8, ParallelConfig{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	pruned, err := RunSeedsParallel(site, cfg, 8, ParallelConfig{Workers: 4, Prune: true})
	if err != nil {
		t.Fatal(err)
	}
	want, _ := json.Marshal(plain)
	got, _ := json.Marshal(pruned)
	if !bytes.Equal(got, want) {
		t.Errorf("pruned fault sweep differs:\npruned:   %s\nunpruned: %s", got, want)
	}
}

// TestPruneRecoveryMatchesGolden reruns E10's 32-seed recovery
// measurement with the ground-truth sweep pruned and asserts the result
// reproduces the pinned unpruned goldens byte for byte, with repeats
// in the class report.
func TestPruneRecoveryMatchesGolden(t *testing.T) {
	for _, tc := range predictiveGoldenCases() {
		t.Run(tc.name, func(t *testing.T) {
			var stats ClassStats
			rec, err := MeasureRecovery(tc.site, DefaultConfig(1), predictiveSweepSeeds,
				ParallelConfig{Workers: 4, Prune: true, Classes: &stats})
			if err != nil {
				t.Fatal(err)
			}
			got, err := json.MarshalIndent(rec, "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, '\n')
			want, err := os.ReadFile(goldenPath("predictive-" + tc.name))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("pruned recovery drifted from the unpruned golden:\ngot:\n%s\nwant:\n%s", got, want)
			}
			if stats.Pruned == 0 {
				t.Errorf("32-seed sweep pruned nothing (%d classes)", stats.Distinct)
			}
		})
	}
}

// TestPruneOtherDetectors: pruning is a report for every detector. Each
// detector's pruned seed and delay-one sweeps must match its unpruned
// ones at workers 1 and 4, and its classes must be the pairwise sweep's:
// they are a property of the executions, not of the detector.
func TestPruneOtherDetectors(t *testing.T) {
	site := sitegen.Generate(sitegen.SchedSpec(0))
	var wantSeeds, wantDelay ClassStats
	if _, err := RunSeedsParallel(site, DefaultConfig(1), 8,
		ParallelConfig{Workers: 1, Prune: true, Classes: &wantSeeds}); err != nil {
		t.Fatal(err)
	}
	if _, err := ExploreSchedulesParallel(site, DefaultConfig(1),
		ParallelConfig{Workers: 1, Prune: true, Classes: &wantDelay}); err != nil {
		t.Fatal(err)
	}
	for _, kind := range []DetectorKind{DetectorAccessSet, DetectorPairwiseVC, DetectorPredictive, DetectorSampled} {
		cfg := DefaultConfig(1)
		cfg.Detector = kind
		plain, err := RunSeedsParallel(site, cfg, 8, ParallelConfig{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		plainDelay, err := ExploreSchedulesParallel(site, cfg, ParallelConfig{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		want, _ := json.Marshal(plain)
		wantDelayB, _ := json.Marshal(delayOneAggregate(plainDelay))
		for _, workers := range []int{1, 4} {
			var stats, delay ClassStats
			pruned, err := RunSeedsParallel(site, cfg, 8, ParallelConfig{Workers: workers, Prune: true, Classes: &stats})
			if err != nil {
				t.Fatal(err)
			}
			if got, _ := json.Marshal(pruned); !bytes.Equal(got, want) {
				t.Errorf("%s workers=%d: pruned sweep differs:\npruned:   %s\nunpruned: %s", kind, workers, got, want)
			}
			if stats != wantSeeds {
				t.Errorf("%s workers=%d: classes %+v, want the pairwise sweep's %+v", kind, workers, stats, wantSeeds)
			}
			prunedDelay, err := ExploreSchedulesParallel(site, cfg, ParallelConfig{Workers: workers, Prune: true, Classes: &delay})
			if err != nil {
				t.Fatal(err)
			}
			if got, _ := json.Marshal(delayOneAggregate(prunedDelay)); !bytes.Equal(got, wantDelayB) {
				t.Errorf("%s workers=%d: pruned delay-one sweep differs:\npruned:   %s\nunpruned: %s", kind, workers, got, wantDelayB)
			}
			if delay != wantDelay {
				t.Errorf("%s workers=%d: delay-one classes %+v, want the pairwise sweep's %+v", kind, workers, delay, wantDelay)
			}
		}
	}
}

// delayOneAggregate is what a delay-one sweep reports, with the
// baseline's reports standing in for its whole Result.
func delayOneAggregate(s *ScheduleSweep) any {
	return []any{s.Runs, s.ByLocation, s.NewlyExposed, s.Reports, s.Degraded, s.Baseline.Reports}
}

// TestPruneFiltersIdentical: the §5.3 filters apply to a pruned sweep's
// reports exactly as to an unpruned one's.
func TestPruneFiltersIdentical(t *testing.T) {
	site := sitegen.Fig4()
	cfg := DefaultConfig(1)
	cfg.Filters = true
	plain, err := RunSeedsParallel(site, cfg, 6, ParallelConfig{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	pruned, err := RunSeedsParallel(site, cfg, 6, ParallelConfig{Workers: 2, Prune: true})
	if err != nil {
		t.Fatal(err)
	}
	want, _ := json.Marshal(plain)
	got, _ := json.Marshal(pruned)
	if !bytes.Equal(got, want) {
		t.Errorf("filtered pruned sweep differs:\npruned:   %s\nunpruned: %s", got, want)
	}
}

// TestPruneSteeringWholeURL: delay-one steering matches a perturbed URL
// only as a whole token of a pair key. On a page with both a.js and
// data.js, where only data.js takes part in a conflicting pair, slowing
// a.js must not count as steering toward data.js's pair.
func TestPruneSteeringWholeURL(t *testing.T) {
	site := loader.NewSite("whole-url").
		Add("index.html", `<script src="a.js"></script><script src="data.js"></script>
<script>d = d + 1;</script>`).
		Add("a.js", `var quiet = 1;`).
		Add("data.js", `var d = 1;`)
	for _, workers := range []int{1, 4} {
		var stats ClassStats
		if _, err := ExploreSchedulesParallel(site, DefaultConfig(1),
			ParallelConfig{Workers: workers, Prune: true, Classes: &stats}); err != nil {
			t.Fatal(err)
		}
		// Only slowing data.js can flip data.js's pair; a substring match
		// would count a.js as well.
		if stats.Steered != 1 {
			t.Errorf("workers=%d: steered = %d, want 1 (data.js only)", workers, stats.Steered)
		}
	}
}

// TestContainsURL pins the token boundaries of the steering match.
func TestContainsURL(t *testing.T) {
	for _, tc := range []struct {
		key, url string
		want     bool
	}{
		{"var d|script exe data.js|script exe inline script", "data.js", true},
		{"var d|script exe data.js|script exe inline script", "a.js", false},
		{"var d|script exe a.js", "a.js", true},
		{"a.js|x", "a.js", true},
		{`elem #x|parse <script id="a.js">|y`, "a.js", true},
		{"var d|network xhr load (a.js)", "a.js", true},
		{"var d|network xhr load a.jsx", "a.js", false},
		{"var d|data.js a.js", "a.js", true},
		{"var d|x", "", false},
	} {
		if got := containsURL(tc.key, tc.url); got != tc.want {
			t.Errorf("containsURL(%q, %q) = %v, want %v", tc.key, tc.url, got, tc.want)
		}
	}
}

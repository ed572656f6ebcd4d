package webracer

import (
	"bytes"
	"os"
	"testing"

	"webracer/internal/loader"
	"webracer/internal/obs"
	"webracer/internal/sitegen"
)

// metricsJSON renders one run's metrics registry in the stable export
// encoding.
func metricsJSON(t *testing.T, m *obs.Metrics) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := m.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	return buf.Bytes()
}

// runCorpusMetrics runs the three golden sites with telemetry at the given
// worker count and returns each run's metrics JSON by case name.
func runCorpusMetrics(t *testing.T, workers int) map[string][]byte {
	t.Helper()
	cases := goldenCases()
	cfg := DefaultConfig(1)
	cfg.Telemetry = true
	results, err := RunCorpusParallel(len(cases), func(i int) *loader.Site {
		return cases[i].site
	}, cfg, ParallelConfig{Workers: workers})
	if err != nil {
		t.Fatalf("RunCorpusParallel(workers=%d): %v", workers, err)
	}
	out := map[string][]byte{}
	for i, res := range results {
		if res.Metrics == nil {
			t.Fatalf("%s: Telemetry set but Result.Metrics is nil", cases[i].name)
		}
		out[cases[i].name] = metricsJSON(t, res.Metrics)
	}
	return out
}

// TestGoldenMetrics pins the telemetry snapshots of the three golden sites
// and asserts the core determinism claim: the bytes are identical whether
// the sweep ran on one worker or eight. Regenerate deliberately with
//
//	go test -run TestGoldenMetrics -update .
func TestGoldenMetrics(t *testing.T) {
	serial := runCorpusMetrics(t, 1)
	parallel := runCorpusMetrics(t, 8)
	for name, want := range serial {
		if got := parallel[name]; !bytes.Equal(got, want) {
			t.Errorf("%s: metrics differ between workers=1 and workers=8\nworkers=1: %s\nworkers=8: %s",
				name, want, got)
		}
		path := goldenPath("metrics-" + name)
		if *updateGolden {
			if err := os.WriteFile(path, want, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		golden, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%s: %v (run with -update to create)", name, err)
		}
		if !bytes.Equal(serial[name], golden) {
			t.Errorf("%s: metrics drifted from golden %s\ngot:  %s\nwant: %s",
				name, path, serial[name], golden)
		}
	}
}

// TestGoldenMetricsPredictive pins the predictive detector's counter
// family (race.predictive.*) on the schedule-dependent sched-00 page —
// the same (site, config) `experiments -obs -metrics-dir` regenerates as
// metrics-sched-predictive.json, so scripts/metricsdiff.sh gates these
// counters alongside the rest of the telemetry layer. Regenerate with
//
//	go test -run TestGoldenMetricsPredictive -update .
func TestGoldenMetricsPredictive(t *testing.T) {
	site := sitegen.Generate(sitegen.SchedSpec(0))
	cfg := DefaultConfig(1)
	cfg.Telemetry = true
	cfg.Detector = DetectorPredictive
	got := metricsJSON(t, RunConfig(site, cfg).Metrics)
	if again := metricsJSON(t, RunConfig(site, cfg).Metrics); !bytes.Equal(got, again) {
		t.Fatalf("predictive metrics not run-to-run stable:\n%s\n%s", got, again)
	}
	path := goldenPath("metrics-sched-predictive")
	if *updateGolden {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	golden, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if !bytes.Equal(got, golden) {
		t.Errorf("predictive metrics drifted from golden %s\ngot:  %s\nwant: %s", path, got, golden)
	}
}

// TestGoldenMetricsSampled pins the sampled tier's counter family
// (race.sampled.*) on corpus site sitegen-07 at the default rate — the
// same (site, config) `experiments -obs -metrics-dir` regenerates as
// metrics-sampled.json, so scripts/metricsdiff.sh gates the tier's
// telemetry alongside the rest of the layer. Regenerate with
//
//	go test -run TestGoldenMetricsSampled -update .
func TestGoldenMetricsSampled(t *testing.T) {
	site := sitegen.Generate(sitegen.SpecFor(1, 7))
	cfg := DefaultConfig(1)
	cfg.Telemetry = true
	cfg.Detector = DetectorSampled
	got := metricsJSON(t, RunConfig(site, cfg).Metrics)
	if again := metricsJSON(t, RunConfig(site, cfg).Metrics); !bytes.Equal(got, again) {
		t.Fatalf("sampled metrics not run-to-run stable:\n%s\n%s", got, again)
	}
	path := goldenPath("metrics-sampled")
	if *updateGolden {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	golden, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if !bytes.Equal(got, golden) {
		t.Errorf("sampled metrics drifted from golden %s\ngot:  %s\nwant: %s", path, got, golden)
	}
}

// TestGoldenMetricsPrune pins the schedule-pruning counter family
// (explore.classes.*) on a pruned 16-seed sweep of the
// schedule-dependent sched-00 page — the same (site, config)
// `experiments -obs -metrics-dir` regenerates as
// metrics-sched-prune.json, so scripts/metricsdiff.sh gates the pruning
// layer's telemetry alongside the rest. The counters must be identical
// at any worker count (classification happens in the in-order fold).
// Regenerate with
//
//	go test -run TestGoldenMetricsPrune -update .
func TestGoldenMetricsPrune(t *testing.T) {
	site := sitegen.Generate(sitegen.SchedSpec(0))
	snap := func(workers int) []byte {
		var stats ClassStats
		if _, err := RunSeedsParallel(site, DefaultConfig(1), 16,
			ParallelConfig{Workers: workers, Prune: true, Classes: &stats}); err != nil {
			t.Fatal(err)
		}
		m := obs.New()
		stats.Fold(m)
		return metricsJSON(t, m)
	}
	got := snap(1)
	if par := snap(4); !bytes.Equal(got, par) {
		t.Fatalf("prune metrics differ between workers=1 and workers=4:\n%s\n%s", got, par)
	}
	path := goldenPath("metrics-sched-prune")
	if *updateGolden {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	golden, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if !bytes.Equal(got, golden) {
		t.Errorf("prune metrics drifted from golden %s\ngot:  %s\nwant: %s", path, got, golden)
	}
}

// TestMetricsRunToRunStability runs the same (site, seed) twice in one
// process and demands byte-identical metrics — the acceptance criterion
// behind golden-testing them at all.
func TestMetricsRunToRunStability(t *testing.T) {
	site := goldenCases()[0].site
	cfg := DefaultConfig(3)
	cfg.Telemetry = true
	a := metricsJSON(t, RunConfig(site, cfg).Metrics)
	b := metricsJSON(t, RunConfig(site, cfg).Metrics)
	if !bytes.Equal(a, b) {
		t.Fatalf("same (site, seed) produced different metrics:\n%s\n%s", a, b)
	}
}

// TestTelemetryOffByDefault guards the zero-cost contract's API half: no
// telemetry unless asked for.
func TestTelemetryOffByDefault(t *testing.T) {
	res := RunConfig(goldenCases()[0].site, DefaultConfig(1))
	if res.Metrics != nil || res.Trace != nil {
		t.Fatalf("Metrics=%v Trace=%v without Telemetry/TimeTrace, want nil", res.Metrics, res.Trace)
	}
}

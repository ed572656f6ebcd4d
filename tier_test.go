package webracer

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"testing"

	"webracer/internal/loader"
	"webracer/internal/sitegen"
)

// reportsJSON marshals a result's raw reports canonically — the byte
// representation the rate-1 identity criterion is stated over.
func reportsJSON(t *testing.T, res *Result) []byte {
	t.Helper()
	b, err := json.Marshal(res.RawReports)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestDetectorKindRoundTrip pins the String/ParseDetector inverse for
// every kind, and the typed error for unknown spellings.
func TestDetectorKindRoundTrip(t *testing.T) {
	for _, k := range DetectorKinds() {
		got, err := ParseDetector(k.String())
		if err != nil {
			t.Errorf("ParseDetector(%q): %v", k.String(), err)
		}
		if got != k {
			t.Errorf("ParseDetector(%q) = %v, want %v", k.String(), got, k)
		}
	}
	if k, err := ParseDetector(""); err != nil || k != DetectorPairwise {
		t.Errorf("ParseDetector(\"\") = %v, %v; want the pairwise default", k, err)
	}
	_, err := ParseDetector("quantum")
	if !errors.Is(err, ErrUnknownDetector) {
		t.Fatalf("ParseDetector(\"quantum\") = %v, want ErrUnknownDetector", err)
	}
	for _, k := range DetectorKinds() {
		if !bytes.Contains([]byte(err.Error()), []byte(k.String())) {
			t.Errorf("unknown-detector error %q does not list %q", err, k.String())
		}
	}
}

// TestConfigValidate drives the typed validation errors.
func TestConfigValidate(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		want error
	}{
		{"default", DefaultConfig(1), nil},
		{"sampled default rate", Config{Detector: DetectorSampled}, nil},
		{"sampled explicit rate", Config{Detector: DetectorSampled, SampleRate: 0.5}, nil},
		{"sampled rate 1", Config{Detector: DetectorSampled, SampleRate: 1}, nil},
		{"negative rate", Config{Detector: DetectorSampled, SampleRate: -0.1}, ErrInvalidSampleRate},
		{"rate above 1", Config{Detector: DetectorSampled, SampleRate: 1.5}, ErrInvalidSampleRate},
		{"rate on exact detector", Config{Detector: DetectorPairwiseVC, SampleRate: 0.5}, ErrInvalidSampleRate},
		{"rate on default detector", Config{SampleRate: 0.5}, ErrInvalidSampleRate},
		{"sampled exhaustive", Config{Detector: DetectorSampled, Explore: true, Exhaustive: true}, ErrSampledExhaustive},
		{"exact exhaustive ok", Config{Detector: DetectorPairwiseVC, Explore: true, Exhaustive: true}, nil},
	}
	for _, tc := range cases {
		err := tc.cfg.Validate()
		if tc.want == nil {
			if err != nil {
				t.Errorf("%s: Validate() = %v, want nil", tc.name, err)
			}
			continue
		}
		if !errors.Is(err, tc.want) {
			t.Errorf("%s: Validate() = %v, want %v", tc.name, err, tc.want)
		}
	}
}

// TestRunPanicsOnInvalidConfig pins RunConfig's documented programmer-error
// behaviour at the library level (boundaries validate first).
func TestRunPanicsOnInvalidConfig(t *testing.T) {
	defer func() {
		v := recover()
		if v == nil {
			t.Fatal("RunConfig with an invalid config did not panic")
		}
		err, ok := v.(error)
		if !ok || !errors.Is(err, ErrInvalidSampleRate) {
			t.Fatalf("panic value %v, want ErrInvalidSampleRate", v)
		}
	}()
	RunConfig(loader.NewSite("x").Add("index.html", "<p>hi</p>"),
		Config{Explore: true, Detector: DetectorSampled, SampleRate: 2})
}

// sampledDifferentialSites is sized so the battery covers every corpus
// pattern yet stays test-suite affordable; seeds add schedule diversity.
const sampledDifferentialSites = 30

// TestDifferentialSampled is the tier's correctness battery over the
// synthetic corpus: at every rate the sampled run's reports are a subset
// of the exact detector's (same pairs), and at rate 1 the two are
// byte-identical — site by site, seed by seed.
func TestDifferentialSampled(t *testing.T) {
	rates := []float64{0.1, 0.25, 0.5, 1.0}
	escalations := 0
	for s := 0; s < 2; s++ {
		seed := int64(1 + s)
		gen := corpusGen(seed)
		for i := 0; i < sampledDifferentialSites; i++ {
			site := gen(i)
			base := DefaultConfig(seed + int64(i)*101)

			exact := base
			exact.Detector = DetectorPairwiseVC
			resExact := RunConfig(site, exact)
			exactPairs := racePairs(resExact)
			exactBytes := reportsJSON(t, resExact)

			for _, rate := range rates {
				sm := base
				sm.Detector = DetectorSampled
				sm.SampleRate = rate
				resSm := RunConfig(site, sm)
				if resSm.Sampled == nil {
					t.Fatalf("site %d seed %d rate %g: Result.Sampled is nil", i, seed, rate)
				}
				if resSm.Sampled.Escalated {
					escalations++
				}
				if d := setDiff(racePairs(resSm), exactPairs); len(d) != 0 {
					t.Fatalf("site %d seed %d rate %g: sampled reported pairs the exact detector did not: %v",
						i, seed, rate, d)
				}
				if rate == 1.0 {
					if got := reportsJSON(t, resSm); !bytes.Equal(got, exactBytes) {
						t.Fatalf("site %d seed %d: rate-1 output differs from the exact detector\ngot:  %s\nwant: %s",
							i, seed, got, exactBytes)
					}
					if (len(exactPairs) > 0) != resSm.Sampled.Escalated {
						t.Fatalf("site %d seed %d: rate-1 escalation %v but exact found %d pairs",
							i, seed, resSm.Sampled.Escalated, len(exactPairs))
					}
				}
			}
		}
	}
	if escalations == 0 {
		t.Fatal("no run escalated across the battery; the subset assertions are vacuous")
	}
}

// TestSampledEscalationContract pins the tier's two terminal states on
// single sites: a racy page at rate 1 escalates and reports the exact
// output; a race-free page stays on the cheap tier and reports nothing.
func TestSampledEscalationContract(t *testing.T) {
	racy := sitegen.Fig1()
	res := RunConfig(racy, Config{Seed: 1, Explore: true, Detector: DetectorSampled, SampleRate: 1})
	if res.Sampled == nil || !res.Sampled.Escalated || res.Sampled.Hits == 0 {
		t.Fatalf("fig1 at rate 1: Sampled = %+v, want an escalated run with hits", res.Sampled)
	}
	exact := RunConfig(racy, Config{Seed: 1, Explore: true, Detector: DetectorPairwiseVC})
	if !bytes.Equal(reportsJSON(t, res), reportsJSON(t, exact)) {
		t.Fatal("escalated reports differ from a direct exact run")
	}

	clean := loader.NewSite("clean").Add("index.html",
		`<p>static</p><script>var a = 1; var b = a + 1;</script>`)
	cres := RunConfig(clean, Config{Seed: 1, Explore: true, Detector: DetectorSampled, SampleRate: 1})
	if cres.Sampled == nil || cres.Sampled.Escalated || cres.Sampled.Hits != 0 || len(cres.RawReports) != 0 {
		t.Fatalf("race-free site: Sampled = %+v, raw %d; want no hits, no escalation",
			cres.Sampled, len(cres.RawReports))
	}
	if cres.Sampled.Stats.Checked == 0 {
		t.Fatal("race-free run at rate 1 checked no accesses; the cheap tier did not run")
	}
}

// TestSampledDeterminismAcrossWorkers is the tier's worker-count
// determinism gate: a sampled corpus sweep — telemetry, reports and
// escalation flags — is byte-identical at 1 and 8 workers.
func TestSampledDeterminismAcrossWorkers(t *testing.T) {
	const n = 12
	runAt := func(workers int) [][]byte {
		cfg := DefaultConfig(1)
		cfg.Detector = DetectorSampled
		cfg.Telemetry = true
		results, err := RunCorpusParallel(n, corpusGen(1), cfg, ParallelConfig{Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		out := make([][]byte, n)
		for i, res := range results {
			var buf bytes.Buffer
			if err := res.Metrics.WriteJSON(&buf); err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&buf, "reports=%s escalated=%v hits=%d",
				reportsJSON(t, res), res.Sampled.Escalated, res.Sampled.Hits)
			out[i] = buf.Bytes()
		}
		return out
	}
	serial := runAt(1)
	parallel := runAt(8)
	for i := range serial {
		if !bytes.Equal(serial[i], parallel[i]) {
			t.Errorf("site %d: sampled output differs between workers=1 and workers=8\nworkers=1: %s\nworkers=8: %s",
				i, serial[i], parallel[i])
		}
	}
}

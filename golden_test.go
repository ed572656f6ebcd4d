package webracer

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"webracer/internal/loader"
	"webracer/internal/sitegen"
)

var updateGolden = flag.Bool("update", false, "rewrite golden session fixtures")

// goldenCases pin three representative sessions: the paper's Fig. 1
// (iframe variable race) and Fig. 4 (function race), plus one synthetic
// corpus site at seed 1. Their exported sessions are checked in under
// testdata/golden; any detector or browser change that alters the race
// reports fails TestGoldenSessions loudly. Regenerate deliberately with
//
//	go test -run TestGoldenSessions -update .
func goldenCases() []struct {
	name string
	site *loader.Site
} {
	return []struct {
		name string
		site *loader.Site
	}{
		{"fig1", sitegen.Fig1()},
		{"fig4", sitegen.Fig4()},
		{"sitegen-07", sitegen.Generate(sitegen.SpecFor(1, 7))},
	}
}

func goldenPath(name string) string {
	return filepath.Join("testdata", "golden", name+".json")
}

// TestGoldenSweeps pins the aggregate outputs — seed sweep and harm
// classification — as byte-exact JSON, exercising the stable tags and
// deterministic marshal order of SeedSweep, Harm and report.Counts.
// Regenerate deliberately with
//
//	go test -run TestGoldenSweeps -update .
func TestGoldenSweeps(t *testing.T) {
	for _, tc := range goldenCases()[:2] { // fig1 and fig4: cheap, race-bearing
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig(1)
			sweep, err := RunSeedsParallel(tc.site, cfg, 3, ParallelConfig{})
			if err != nil {
				t.Fatal(err)
			}
			res := RunConfig(tc.site, cfg)
			harm, err := ClassifyHarmfulParallel(tc.site, cfg, res, ParallelConfig{})
			if err != nil {
				t.Fatal(err)
			}
			got, err := json.MarshalIndent(struct {
				Sweep *SeedSweep `json:"sweep"`
				Harm  *Harm      `json:"harm"`
			}{sweep, harm}, "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, '\n')

			path := goldenPath(tc.name + "-sweep")
			if *updateGolden {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				t.Logf("wrote %s", path)
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (run with -update to regenerate)", err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("sweep output drifted from golden file %s:\ngot:\n%s\nwant:\n%s", path, got, want)
			}
		})
	}
}

// TestGoldenFaultSweep pins a full fault sweep over a fault-corpus page —
// including a race only reachable on the error path (the fragile-image
// onerror fallback), absent from the baseline run and listed in
// newlyExposed. Any change to fault decisions, error-path happens-before
// or sweep aggregation shows up as a byte diff. Regenerate deliberately
// with
//
//	go test -run TestGoldenFaultSweep -update .
func TestGoldenFaultSweep(t *testing.T) {
	site := sitegen.Generate(sitegen.FaultSpec(0))
	cfg := DefaultConfig(3)
	sweep, err := RunFaultSweep(site, cfg, FaultSweepConfig{Plans: 12}, ParallelConfig{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := sweep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got := buf.Bytes()

	path := goldenPath("faultsweep-00")
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d newly exposed)", path, len(sweep.NewlyExposed))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("fault sweep drifted from golden file %s:\ngot:\n%s\nwant:\n%s", path, got, want)
	}
	if len(sweep.NewlyExposed) == 0 {
		t.Error("golden fault sweep exposes no error-path race; the fixture lost its point")
	}
}

func TestGoldenSessions(t *testing.T) {
	for _, tc := range goldenCases() {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig(1)
			res := RunConfig(tc.site, cfg)
			got := Export(res, cfg.Seed, nil, false)

			path := goldenPath(tc.name)
			if *updateGolden {
				var buf bytes.Buffer
				if err := got.WriteJSON(&buf); err != nil {
					t.Fatal(err)
				}
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				t.Logf("wrote %s (%d races)", path, len(got.Races))
				return
			}

			f, err := os.Open(path)
			if err != nil {
				t.Fatalf("%v (run with -update to regenerate)", err)
			}
			defer f.Close()
			want, err := ReadSession(f)
			if err != nil {
				t.Fatal(err)
			}

			fixed, introduced := DiffRaces(want, got)
			if len(fixed) != 0 || len(introduced) != 0 {
				t.Errorf("race reports drifted from golden session:\n  no longer reported: %v\n  newly reported: %v\n(regenerate deliberately with -update)",
					fixed, introduced)
			}
			// Per-type counts catch drift that keeps the location set
			// but changes classification.
			for typ, n := range want.Counts {
				if got.Counts[typ] != n {
					t.Errorf("%s count %d, golden %d", typ, got.Counts[typ], n)
				}
			}
			for typ, n := range got.Counts {
				if _, ok := want.Counts[typ]; !ok {
					t.Errorf("new race type %s (%d) not in golden session", typ, n)
				}
			}
			if len(got.Ops) != len(want.Ops) {
				t.Errorf("execution shape drifted: %d ops, golden %d", len(got.Ops), len(want.Ops))
			}
		})
	}
}

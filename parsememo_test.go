package webracer

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"sort"
	"testing"

	"webracer/internal/fault"
	"webracer/internal/js"
	"webracer/internal/loader"
	"webracer/internal/race"
	"webracer/internal/report"
	"webracer/internal/sitegen"
)

// memoPages is the parse-memo battery's page set: corpus, sched and
// stress pages.
func memoPages() []struct {
	name string
	site *loader.Site
} {
	return []struct {
		name string
		site *loader.Site
	}{
		{"corpus-07", sitegen.Generate(sitegen.SpecFor(1, 7))},
		{"corpus-11", sitegen.Generate(sitegen.SpecFor(1, 11))},
		{"sched-00", sitegen.Generate(sitegen.SchedSpec(0))},
		{"sched-01", sitegen.Generate(sitegen.SchedSpec(1))},
		{"stress-00", sitegen.Generate(sitegen.StressSpec(0))},
	}
}

// withMemo returns cfg carrying memo; the drivers keep a memo the
// caller supplies, which is how these tests observe it.
func withMemo(cfg Config, memo *js.Programs) Config {
	cfg.Browser.Programs = memo
	return cfg
}

// TestParseMemoImmutable: a 4-worker 8-seed sweep runs every script of
// the page many times over shared ASTs; afterwards every memoized
// Program must still equal a fresh parse of its source. A write to an
// AST node during evaluation would show up here.
func TestParseMemoImmutable(t *testing.T) {
	for _, pg := range memoPages() {
		t.Run(pg.name, func(t *testing.T) {
			memo := js.NewPrograms()
			if _, err := RunSeedsParallel(pg.site, withMemo(DefaultConfig(1), memo), 8,
				ParallelConfig{Workers: 4}); err != nil {
				t.Fatal(err)
			}
			n := 0
			memo.Range(func(src string, prog *js.Program, err error) bool {
				n++
				fresh, ferr := js.Parse(src)
				if fmt.Sprint(err) != fmt.Sprint(ferr) {
					t.Errorf("memoized error %v, fresh parse %v for %q", err, ferr, src)
				}
				if !reflect.DeepEqual(prog, fresh) {
					t.Errorf("memoized AST of %q differs from a fresh parse", src)
				}
				return true
			})
			if n == 0 {
				t.Fatal("the sweep memoized no source")
			}
		})
	}
}

// memoSources returns the sorted sources memo holds.
func memoSources(memo *js.Programs) []string {
	var srcs []string
	memo.Range(func(src string, _ *js.Program, _ error) bool {
		srcs = append(srcs, src)
		return true
	})
	sort.Strings(srcs)
	return srcs
}

// TestParseMemoCounts: in an 8-seed sweep the memo parses each distinct
// source once — its misses are the distinct sources of one run — and
// answers every other parse of the sweep from the memo.
func TestParseMemoCounts(t *testing.T) {
	for _, pg := range memoPages()[:4] {
		t.Run(pg.name, func(t *testing.T) {
			const seeds = 8
			cfg := DefaultConfig(1)
			// Each seed alone, with a memo of its own: its sources and
			// its parse count.
			var oneRun []string
			total := 0
			for i := 0; i < seeds; i++ {
				memo := js.NewPrograms()
				c := withMemo(cfg, memo)
				c.Seed = cfg.Seed + int64(i)*7919
				RunConfig(pg.site, c)
				st := memo.Stats()
				total += st.Hits + st.Misses
				srcs := memoSources(memo)
				if i == 0 {
					oneRun = srcs
				} else if !reflect.DeepEqual(srcs, oneRun) {
					t.Fatalf("seed %d parses other sources than seed 0; pick a page whose sources do not depend on the schedule", i)
				}
			}
			memo := js.NewPrograms()
			if _, err := RunSeedsParallel(pg.site, withMemo(cfg, memo), seeds,
				ParallelConfig{Workers: 4}); err != nil {
				t.Fatal(err)
			}
			st := memo.Stats()
			if st.Misses != len(oneRun) {
				t.Errorf("misses = %d, want %d (the distinct sources of one run)", st.Misses, len(oneRun))
			}
			if st.Hits != total-len(oneRun) {
				t.Errorf("hits = %d, want %d (every other parse of the sweep)", st.Hits, total-len(oneRun))
			}
			if got := memoSources(memo); !reflect.DeepEqual(got, oneRun) {
				t.Errorf("sweep memo holds %d sources, one run parses %d", len(got), len(oneRun))
			}
		})
	}
}

// TestParseMemoSyntaxErrors: a memoized parse error reaches the page
// exactly as a fresh one does — inline, external, handler-attribute and
// timer-string sources alike — in every run that shares the memo.
func TestParseMemoSyntaxErrors(t *testing.T) {
	site := loader.NewSite("broken").
		Add("index.html", `<script>var a = ;</script>
<script src="lib.js"></script>
<button id="b" onclick="go((">go</button>
<script>setTimeout("var t = {;", 5); var ok = 1;</script>
<iframe src="frame.html"></iframe>`).
		Add("lib.js", `function f( { return 1; }`).
		Add("frame.html", `<script>var a = ;</script>`)
	errorsOf := func(res *Result) []string {
		var out []string
		for _, e := range res.Errors {
			out = append(out, e.String())
		}
		return out
	}
	cfg := DefaultConfig(1)
	want := errorsOf(RunConfig(site, cfg))
	if len(want) < 4 {
		t.Fatalf("page produced %d errors, want one per broken source: %v", len(want), want)
	}
	memo := js.NewPrograms()
	for run := 0; run < 3; run++ {
		if got := errorsOf(RunConfig(site, withMemo(cfg, memo))); !reflect.DeepEqual(got, want) {
			t.Fatalf("run %d with the memo:\n got %q\nwant %q", run, got, want)
		}
	}
	if memo.Stats().Hits == 0 {
		t.Fatal("the memo answered no parse; the repeat runs did not share it")
	}
}

// ---- byte identity against plain runs ----

// plainRun is one detection run that parses without a memo. A single
// RunConfig — the sampled tier's included, which runs the page once — never
// carries one.
func plainRun(site *loader.Site, cfg Config) *Result {
	return RunConfig(site, cfg)
}

// refSeeds is the seed sweep folded from plain runs.
func refSeeds(site *loader.Site, cfg Config, n int) *SeedSweep {
	sweep := &SeedSweep{Locations: map[string]int{}, Seeds: n}
	for i := 0; i < n; i++ {
		c := cfg
		c.Seed = cfg.Seed + int64(i)*7919
		res := plainRun(site, c)
		sweep.PerSeed = append(sweep.PerSeed, len(res.Reports))
		for _, key := range locsOf(res.Reports) {
			sweep.Locations[key]++
		}
	}
	return sweep
}

// locsOf lists the distinct locations of reports in first-seen order.
func locsOf(reports []race.Report) []string {
	var locs []string
	seen := map[string]bool{}
	for _, r := range reports {
		if key := r.Loc.String(); !seen[key] {
			seen[key] = true
			locs = append(locs, key)
		}
	}
	return locs
}

// refSchedules is the delay-one sweep folded from plain runs.
func refSchedules(site *loader.Site, cfg Config) *ScheduleSweep {
	sweep := &ScheduleSweep{ByLocation: map[string][]string{}}
	seen := map[string]bool{}
	record := func(label string, res *Result) {
		sweep.Runs++
		for _, r := range res.Reports {
			key := r.Loc.String()
			sweep.ByLocation[key] = append(sweep.ByLocation[key], label)
			if !seen[key] {
				seen[key] = true
				sweep.Reports = append(sweep.Reports, r)
			}
		}
	}
	sweep.Baseline = plainRun(site, cfg)
	record("", sweep.Baseline)
	for _, url := range resourceURLs(site) {
		c := cfg
		c.Seed = cfg.Seed + 1
		c.Browser.Latency = slowOne(c.Browser.Latency, url)
		record("slow:"+url, plainRun(site, c))
	}
	sweep.NewlyExposed = newlyExposed(sweep.ByLocation, locsOf(sweep.Baseline.Reports))
	return sweep
}

// scheduleJSON serializes a delay-one sweep, its baseline as the full
// exported session.
func scheduleJSON(t *testing.T, s *ScheduleSweep, seed int64) []byte {
	t.Helper()
	b, err := json.Marshal(struct {
		Runs         int
		ByLocation   map[string][]string
		NewlyExposed []string
		Reports      []race.Report
		Baseline     json.RawMessage
	}{s.Runs, s.ByLocation, s.NewlyExposed, s.Reports, exportBytes(t, s.Baseline, seed)})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// refFaultSweep is the fault sweep over the default plans folded from
// plain runs.
func refFaultSweep(site *loader.Site, cfg Config, plans int) *FaultSweep {
	sweep := &FaultSweep{Site: site.Name, Seed: cfg.Seed, Locations: map[string]int{}}
	baseline := map[string]bool{}
	for unit := 0; unit <= plans; unit++ {
		c := cfg
		label := "baseline"
		if unit > 0 {
			plan := protectEntry(fault.ForSeed(cfg.Seed, unit-1), entryOf(cfg))
			c.Fault, label = &plan, plan.Label()
		}
		res := plainRun(site, c)
		run := FaultRun{Plan: label, Faults: len(res.FaultEvents), Errors: len(res.Errors)}
		run.Races = locsOf(res.Reports)
		sort.Strings(run.Races)
		for _, key := range run.Races {
			sweep.Locations[key]++
			if unit == 0 {
				baseline[key] = true
			}
		}
		sweep.Runs = append(sweep.Runs, run)
	}
	for loc := range sweep.Locations {
		if !baseline[loc] {
			sweep.NewlyExposed = append(sweep.NewlyExposed, loc)
		}
	}
	sort.Strings(sweep.NewlyExposed)
	return sweep
}

// refHarm is the harm classification folded from memo-free adversarial
// runs.
func refHarm(site *loader.Site, cfg Config, res *Result) *Harm {
	h := &Harm{Harmful: make([]bool, len(res.Reports))}
	for n := 0; n < cfg.HarmRuns; n++ {
		c := cfg
		c.Seed = cfg.Seed + int64(n)*104729
		h.judge(runAdversarial(site, c), res)
	}
	return h
}

// refValidate is ValidateRace folded from plain runs.
func refValidate(site *loader.Site, cfg Config, r race.Report, runs int) *Validation {
	v := &Validation{Runs: runs}
	k1, k2 := keyOf(r.Prior), keyOf(r.Current)
	for i := 0; i < runs; i++ {
		c := cfg
		c.Seed = cfg.Seed + int64(i)*7919 + 13
		c.RecordTrace = true
		trace := plainRun(site, c).Browser.Trace()
		i1, i2 := findAccess(trace, k1), findAccess(trace, k2)
		switch {
		case i1 < 0 || i2 < 0:
			v.Missing++
		case i1 < i2:
			v.PriorFirst++
		default:
			v.CurrentFirst++
		}
	}
	return v
}

// TestParseMemoByteIdentity: every driver that shares a parse memo
// across its runs marshals, at workers 1 and 4, to exactly the bytes of
// a reference fold of plain runs that parse without one.
func TestParseMemoByteIdentity(t *testing.T) {
	sched := sitegen.Generate(sitegen.SchedSpec(0))
	gomez := sitegen.Generate(sitegen.SpecFor(1, 7)) // harmful races
	faulty := sitegen.Generate(sitegen.FaultSpec(0))
	fig1 := sitegen.Fig1()
	cfg := DefaultConfig(1)
	sampled := cfg
	sampled.Detector, sampled.SampleRate = DetectorSampled, 1
	harmCfg := cfg
	harmCfg.Filters, harmCfg.HarmRuns = true, 3
	harmRes := RunConfig(gomez, harmCfg)
	fig1Res := RunConfig(fig1, cfg)
	if len(fig1Res.Reports) == 0 {
		t.Fatal("fig1 reported no race to validate")
	}

	mustJSON := func(v any, err error) []byte {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	cases := []struct {
		name string
		run  func(p ParallelConfig) []byte
		ref  func() []byte
	}{
		{"seeds",
			func(p ParallelConfig) []byte { return mustJSON(RunSeedsParallel(sched, cfg, 8, p)) },
			func() []byte { return mustJSON(refSeeds(sched, cfg, 8), nil) }},
		{"seeds-pruned",
			func(p ParallelConfig) []byte {
				p.Prune = true
				return mustJSON(RunSeedsParallel(sched, cfg, 8, p))
			},
			func() []byte { return mustJSON(refSeeds(sched, cfg, 8), nil) }},
		{"seeds-sampled",
			func(p ParallelConfig) []byte { return mustJSON(RunSeedsParallel(fig1, sampled, 4, p)) },
			func() []byte { return mustJSON(refSeeds(fig1, sampled, 4), nil) }},
		{"delay-one",
			func(p ParallelConfig) []byte {
				s, err := ExploreSchedulesParallel(gomez, cfg, p)
				mustJSON(nil, err)
				return scheduleJSON(t, s, cfg.Seed)
			},
			func() []byte { return scheduleJSON(t, refSchedules(gomez, cfg), cfg.Seed) }},
		{"delay-one-pruned",
			func(p ParallelConfig) []byte {
				p.Prune = true
				s, err := ExploreSchedulesParallel(gomez, cfg, p)
				mustJSON(nil, err)
				return scheduleJSON(t, s, cfg.Seed)
			},
			func() []byte { return scheduleJSON(t, refSchedules(gomez, cfg), cfg.Seed) }},
		{"faultsweep",
			func(p ParallelConfig) []byte {
				return mustJSON(RunFaultSweep(faulty, cfg, FaultSweepConfig{Plans: 4}, p))
			},
			func() []byte { return mustJSON(refFaultSweep(faulty, cfg, 4), nil) }},
		{"recovery",
			func(p ParallelConfig) []byte { return mustJSON(MeasureRecovery(sched, cfg, 6, p)) },
			func() []byte {
				pcfg := cfg
				pcfg.Detector = DetectorPredictive
				return mustJSON(recoveryOf(sched, 6, refSeeds(sched, cfg, 6), plainRun(sched, pcfg)), nil)
			}},
		{"harm",
			func(p ParallelConfig) []byte {
				return mustJSON(ClassifyHarmfulParallel(gomez, harmCfg, harmRes, p))
			},
			func() []byte { return mustJSON(refHarm(gomez, harmCfg, harmRes), nil) }},
		{"validate",
			func(ParallelConfig) []byte { return mustJSON(ValidateRace(fig1, cfg, fig1Res.Reports[0], 6), nil) },
			func() []byte { return mustJSON(refValidate(fig1, cfg, fig1Res.Reports[0], 6), nil) }},
		{"sampled-escalation",
			func(ParallelConfig) []byte {
				res := RunConfig(fig1, sampled)
				if !res.Sampled.Escalated {
					t.Fatal("fig1 at rate 1 did not escalate")
				}
				return append(exportBytes(t, res, 1), mustJSON(res.Sampled, nil)...)
			},
			func() []byte {
				res := plainRun(fig1, sampled)
				return append(exportBytes(t, res, 1), mustJSON(res.Sampled, nil)...)
			}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want := tc.ref()
			for _, workers := range []int{1, 4} {
				if got := tc.run(ParallelConfig{Workers: workers}); !bytes.Equal(got, want) {
					t.Errorf("workers=%d: output differs from the memo-free reference:\n got %s\nwant %s",
						workers, got, want)
				}
			}
		})
	}
	// The harm check is only as strong as the races it classifies.
	if refHarm(gomez, harmCfg, harmRes).Total() == 0 {
		t.Errorf("gomez page classified no race harmful; the harm case is vacuous (%v)",
			report.Count(harmRes.Reports))
	}
}

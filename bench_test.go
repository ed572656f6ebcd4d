package webracer

// Benchmark harness: one benchmark per evaluation artifact of the paper
// (see DESIGN.md's experiment index and EXPERIMENTS.md for a reference
// run). Benchmarks report domain metrics (races, ops) via b.ReportMetric
// alongside the usual ns/op.
//
//	go test -bench=. -benchmem

import (
	"testing"
	"time"

	"webracer/internal/hb"
	"webracer/internal/loader"
	"webracer/internal/race"
	"webracer/internal/report"
	"webracer/internal/sitegen"
)

// corpusSize keeps the corpus benchmarks affordable per iteration while
// exercising every pattern (the full 100-site run is cmd/experiments).
const corpusSize = 25

func corpusGen(seed int64) func(int) *loader.Site {
	return func(i int) *loader.Site { return sitegen.Generate(sitegen.SpecFor(seed, i)) }
}

// BenchmarkTable1 regenerates experiment E1: raw race counts over the
// synthetic corpus, no filters (paper Table 1).
func BenchmarkTable1(b *testing.B) {
	races := 0
	var t1 report.Table1
	for i := 0; i < b.N; i++ {
		results, err := RunCorpusParallel(corpusSize, corpusGen(1), DefaultConfig(1), ParallelConfig{Workers: 1})
		if err != nil {
			b.Fatal(err)
		}
		counts := make([]report.Counts, len(results))
		races = 0
		for j, r := range results {
			counts[j] = r.RawCounts
			races += r.RawCounts.Total()
		}
		t1 = report.BuildTable1(counts)
	}
	b.ReportMetric(float64(races), "races")
	b.ReportMetric(t1.Rows["All"].Mean, "mean-races/site")
}

// BenchmarkTable2 regenerates experiment E2: filtered races plus the
// adversarial-replay harm oracle (paper Table 2).
func BenchmarkTable2(b *testing.B) {
	kept, harmful := 0, 0
	for i := 0; i < b.N; i++ {
		kept, harmful = 0, 0
		cfg := DefaultConfig(1)
		cfg.Filters = true
		for s := 0; s < corpusSize; s++ {
			site := corpusGen(1)(s)
			c := cfg
			c.Seed = cfg.Seed + int64(s)*101
			res := RunConfig(site, c)
			h, err := ClassifyHarmfulParallel(site, c, res, ParallelConfig{Workers: 1})
			if err != nil {
				b.Fatal(err)
			}
			kept += len(res.Reports)
			harmful += h.Total()
		}
	}
	b.ReportMetric(float64(kept), "filtered-races")
	b.ReportMetric(float64(harmful), "harmful-races")
}

// cpuPage is the SunSpider-flavoured CPU-bound workload of experiment E3.
const cpuPage = `
<script>
function fib(n) { return n < 2 ? n : fib(n-1) + fib(n-2); }
function work() {
  var acc = 0;
  for (var i = 0; i < 300; i++) { acc = acc + i * i % 7; }
  var s = "";
  for (var j = 0; j < 80; j++) { s = s + "x" + j; }
  var arr = [];
  for (var k = 0; k < 150; k++) { arr.push(k); }
  var sum = 0;
  for (var m = 0; m < arr.length; m++) { sum += arr[m]; }
  return acc + s.length + sum + fib(13);
}
total = 0;
for (var r = 0; r < 25; r++) { total = total + work(); }
</script>`

// BenchmarkOverheadDetectorOn measures the instrumented configuration of
// experiment E3 (§6 Performance).
func BenchmarkOverheadDetectorOn(b *testing.B) {
	site := loader.NewSite("cpu").Add("index.html", cpuPage)
	cfg := DefaultConfig(1)
	cfg.Explore = false
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		RunConfig(site, cfg)
	}
}

// BenchmarkOverheadDetectorOff is E3's baseline: the same interpreter and
// browser with instrumentation disabled entirely (no hooks, no detector).
func BenchmarkOverheadDetectorOff(b *testing.B) {
	site := loader.NewSite("cpu").Add("index.html", cpuPage)
	cfg := DefaultConfig(1)
	cfg.Explore = false
	cfg.Browser.NoInstrument = true
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		RunConfig(site, cfg)
	}
}

// stressGen generates the wide pages of the §6 performance claim ("tens of
// thousands of operations"): thousands of operations across hundreds of
// concurrent handler tasks, where the eager vector-clock construction the
// epoch representation replaces is actually visible.
func stressGen(i int) *loader.Site {
	return sitegen.Generate(sitegen.StressSpec(i))
}

// recordedCorpus runs the replay-ablation workload once with trace
// recording: a slice of the regular corpus plus the wide stress pages, so
// the happens-before representations are compared both on typical pages
// and at the execution sizes the paper reports (§6).
func recordedCorpus(b *testing.B) []*Result {
	b.Helper()
	cfg := DefaultConfig(1)
	cfg.RecordTrace = true
	results, err := RunCorpusParallel(10, corpusGen(1), cfg, ParallelConfig{})
	if err != nil {
		b.Fatal(err)
	}
	stress, err := RunCorpusParallel(4, stressGen, cfg, ParallelConfig{})
	if err != nil {
		b.Fatal(err)
	}
	return append(results, stress...)
}

// BenchmarkDetectorGraph is experiment E4's first arm: replaying recorded
// traces against the paper's graph-reachability happens-before.
func BenchmarkDetectorGraph(b *testing.B) {
	results := recordedCorpus(b)
	b.ResetTimer()
	races := 0
	for i := 0; i < b.N; i++ {
		races = 0
		for _, res := range results {
			d := race.NewPairwise(res.Browser.HB)
			races += len(race.Replay(res.Browser.Trace(), d))
		}
	}
	b.ReportMetric(float64(races), "races")
}

// BenchmarkDetectorVCEpoch is E4's second arm: the epoch-optimized
// vector-clock representation (lazy chains, certificates, on-demand clock
// materialization), construction included.
func BenchmarkDetectorVCEpoch(b *testing.B) {
	results := recordedCorpus(b)
	b.ResetTimer()
	races := 0
	for i := 0; i < b.N; i++ {
		races = 0
		for _, res := range results {
			trace := res.Browser.Trace()
			clocks := hb.NewClocks(res.Browser.HB)
			d := race.NewPairwise(clocks, race.LocHint(len(trace)/4))
			races += len(race.Replay(trace, d))
		}
	}
	b.ReportMetric(float64(races), "races")
}

// BenchmarkDetectorSampled is the tier battery's cost arm (E11): the
// Pairwise core behind the sampler's admission predicate, at the default
// rate, over the same recorded traces as the E4 arms, construction
// included. Rejected locations cost one table word and no check.
func BenchmarkDetectorSampled(b *testing.B) {
	results := recordedCorpus(b)
	b.ResetTimer()
	hits := 0
	for i := 0; i < b.N; i++ {
		hits = 0
		for _, res := range results {
			trace := res.Browser.Trace()
			clocks := hb.NewClocks(res.Browser.HB)
			d := race.NewSampled(clocks, DefaultSampleRate, 1, race.LocHint(len(trace)/4))
			hits += len(race.Replay(trace, d))
		}
	}
	b.ReportMetric(float64(hits), "hits")
}

// BenchmarkDetectorSampledFullRate is the same workload at rate 1.0 — the
// tier's exact configuration, whose hit set equals the pairwise arm's
// report set (asserted, so the benchmark doubles as a correctness check).
func BenchmarkDetectorSampledFullRate(b *testing.B) {
	results := recordedCorpus(b)
	want := 0
	for _, res := range results {
		trace := res.Browser.Trace()
		pw := race.NewPairwise(hb.NewClocks(res.Browser.HB), race.LocHint(len(trace)/4))
		want += len(race.Replay(trace, pw))
	}
	b.ResetTimer()
	hits := 0
	for i := 0; i < b.N; i++ {
		hits = 0
		for _, res := range results {
			trace := res.Browser.Trace()
			clocks := hb.NewClocks(res.Browser.HB)
			d := race.NewSampled(clocks, 1.0, 1, race.LocHint(len(trace)/4))
			hits += len(race.Replay(trace, d))
		}
	}
	b.StopTimer()
	if hits != want {
		b.Fatalf("rate-1 sampled found %d hits, pairwise %d", hits, want)
	}
	b.ReportMetric(float64(hits), "hits")
}

// BenchmarkSampledEscalation is one sampled-tier job end to end on a
// stress page at the default rate: the cheap pass, which hits on this
// page, and the escalation to the exact detector. Compare it with the
// same page under DetectorPairwiseVC (the exact arm) for the tier's
// overhead over one exact run.
func BenchmarkSampledEscalation(b *testing.B) {
	site := stressGen(0)
	for _, det := range []DetectorKind{DetectorSampled, EscalationDetector} {
		b.Run(det.String(), func(b *testing.B) {
			cfg := DefaultConfig(1)
			cfg.Detector = det
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res := RunConfig(site, cfg)
				if det == DetectorSampled && !res.Sampled.Escalated {
					b.Fatal("the stress page did not escalate; the benchmark measures the cheap pass only")
				}
			}
		})
	}
}

// BenchmarkDetectorRunFloor measures one default-configuration Run with
// allocations reported, on a near-empty page, where the per-run fixed
// costs (detector tables, browser set-up) are all there is, and on one
// corpus page.
func BenchmarkDetectorRunFloor(b *testing.B) {
	pages := []struct {
		name string
		site *loader.Site
	}{
		{"empty", loader.NewSite("empty").Add("index.html", "<html><body></body></html>")},
		{"corpus", corpusGen(1)(0)},
	}
	for _, p := range pages {
		b.Run(p.name, func(b *testing.B) {
			cfg := DefaultConfig(1)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				RunConfig(p.site, cfg)
			}
		})
	}
}

// BenchmarkDetectorRunCorpusCold measures cold default-configuration
// detections the way a node serves cache misses: each op is one Run of
// one of 400 corpus pages, each at its own seed, with no parse memo, so
// every script is lexed, parsed and resolved afresh. Allocations per op
// are per run.
func BenchmarkDetectorRunCorpusCold(b *testing.B) {
	const pages = 400
	sites := make([]*loader.Site, pages)
	for i := range sites {
		sites[i] = corpusGen(1)(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i % pages
		RunConfig(sites[k], DefaultConfig(int64(1000+k)))
	}
}

// BenchmarkReplayVC measures the public ReplayVC entry point on the
// recorded traces and asserts its race count equals the graph replay's.
func BenchmarkReplayVC(b *testing.B) {
	results := recordedCorpus(b)
	want := 0
	for _, res := range results {
		want += len(race.Replay(res.Browser.Trace(), race.NewPairwise(res.Browser.HB)))
	}
	b.ResetTimer()
	races := 0
	for i := 0; i < b.N; i++ {
		races = 0
		for _, res := range results {
			races += len(ReplayVC(res))
		}
	}
	b.StopTimer()
	if races != want {
		b.Fatalf("ReplayVC found %d races, the graph replay %d", races, want)
	}
	b.ReportMetric(float64(races), "races")
}

// BenchmarkDetectorLiveVC is E4's online arm: the whole pipeline running
// with the incremental vector-clock oracle instead of the graph.
func BenchmarkDetectorLiveVC(b *testing.B) {
	races := 0
	for i := 0; i < b.N; i++ {
		cfg := DefaultConfig(1)
		cfg.Detector = DetectorPairwiseVC
		races = 0
		for s := 0; s < 10; s++ {
			races += len(RunConfig(corpusGen(1)(s), cfg).RawReports)
		}
	}
	b.ReportMetric(float64(races), "races")
}

// BenchmarkDetectorLiveGraph is the matching graph-oracle arm over the
// same 10 sites, full pipeline.
func BenchmarkDetectorLiveGraph(b *testing.B) {
	races := 0
	for i := 0; i < b.N; i++ {
		races = 0
		for s := 0; s < 10; s++ {
			races += len(RunConfig(corpusGen(1)(s), DefaultConfig(1)).RawReports)
		}
	}
	b.ReportMetric(float64(races), "races")
}

// BenchmarkDetectorAccessSet is experiment E5: the full-history detector
// that fixes the §5.1 miss, on the same traces.
func BenchmarkDetectorAccessSet(b *testing.B) {
	results := recordedCorpus(b)
	b.ResetTimer()
	races := 0
	for i := 0; i < b.N; i++ {
		races = 0
		for _, res := range results {
			d := race.NewAccessSet(res.Browser.HB, race.OnePerLoc())
			races += len(race.Replay(res.Browser.Trace(), d))
		}
	}
	b.ReportMetric(float64(races), "races")
}

// figureBench runs one of the paper's figure pages end to end (F1–F5).
func figureBench(b *testing.B, site *loader.Site, want report.Type) {
	found := 0
	for i := 0; i < b.N; i++ {
		res := Run(site, WithSeed(1))
		found = 0
		for _, r := range res.Reports {
			if report.Classify(r) == want {
				found++
			}
		}
		if found == 0 {
			b.Fatalf("figure race not detected")
		}
	}
	b.ReportMetric(float64(found), "races")
}

func BenchmarkFigure1IframeVariable(b *testing.B) {
	figureBench(b, loader.NewSite("fig1").
		Add("index.html", `<script>x = 1;</script>
<iframe src="a.html"></iframe><iframe src="b.html"></iframe>`).
		Add("a.html", `<script>x = 2;</script>`).
		Add("b.html", `<script>alert(x);</script>`), report.Variable)
}

func BenchmarkFigure2FormValue(b *testing.B) {
	figureBench(b, loader.NewSite("fig2").
		Add("index.html", `<input type="text" id="depart" />
<script>document.getElementById("depart").value = "City of Departure";</script>`),
		report.Variable)
}

func BenchmarkFigure3HTML(b *testing.B) {
	figureBench(b, loader.NewSite("fig3").
		Add("index.html", `
<script>function show() { var v = document.getElementById("dw"); v.style.display = "block"; }</script>
<a href="javascript:show()">Send Email</a>
<div id="dw" style="display:none"></div>`), report.HTML)
}

func BenchmarkFigure4Function(b *testing.B) {
	figureBench(b, loader.NewSite("fig4").
		Add("index.html", `
<iframe id="i" src="sub.html" onload="setTimeout(doNextStep, 20)"></iframe>
<script>function doNextStep() { done = 1; }</script>`).
		Add("sub.html", `<p>sub</p>`), report.Function)
}

func BenchmarkFigure5EventDispatch(b *testing.B) {
	figureBench(b, loader.NewSite("fig5").
		Add("index.html", `
<iframe id="i" src="a.html"></iframe>
<script>document.getElementById("i").onload = function() { ran = 1; };</script>`).
		Add("a.html", `<p>nested</p>`), report.EventDispatch)
}

// BenchmarkPageLoad measures raw simulated-browser throughput on a mid-size
// synthetic page (ops/sec context for the §6 "tens of thousands of
// operations in less than a minute" claim).
func BenchmarkPageLoad(b *testing.B) {
	site := sitegen.Generate(sitegen.SpecFor(1, 11)) // the Ford outlier: busiest page
	cfg := DefaultConfig(1)
	cfg.Explore = false
	ops := 0
	for i := 0; i < b.N; i++ {
		res := RunConfig(site, cfg)
		ops = res.Ops
	}
	b.ReportMetric(float64(ops), "ops/page")
}

// BenchmarkExploration isolates the automatic-exploration pass (§5.2.2).
func BenchmarkExploration(b *testing.B) {
	site := sitegen.Generate(sitegen.SpecFor(1, 41)) // delayed-menu heavy page
	for i := 0; i < b.N; i++ {
		res := Run(site, WithSeed(1))
		if res.ExploreStats.EventsDispatched == 0 {
			b.Fatal("exploration dispatched nothing")
		}
	}
}

// BenchmarkExplorationExhaustive measures the Artemis-style feedback-
// directed mode on the same page (deeper coverage, more rounds).
func BenchmarkExplorationExhaustive(b *testing.B) {
	site := sitegen.Generate(sitegen.SpecFor(1, 41))
	rounds := 0
	for i := 0; i < b.N; i++ {
		cfg := DefaultConfig(1)
		cfg.Exhaustive = true
		res := RunConfig(site, cfg)
		rounds = res.ExploreStats.Rounds
	}
	b.ReportMetric(float64(rounds), "rounds")
}

// BenchmarkAppendixAOrdering is the Appendix A design-choice ablation: the
// paper leaves same-(phase,target) handlers unordered to expose more races;
// this measures how many corpus races that choice accounts for.
func BenchmarkAppendixAOrdering(b *testing.B) {
	unordered, ordered := 0, 0
	for i := 0; i < b.N; i++ {
		unordered, ordered = 0, 0
		for s := 0; s < 10; s++ {
			site := corpusGen(1)(s)
			cfg := DefaultConfig(1)
			resU := RunConfig(site, cfg)
			unordered += len(resU.RawReports)
			cfg.Browser.OrderSameTargetHandlers = true
			resO := RunConfig(site, cfg)
			ordered += len(resO.RawReports)
		}
	}
	b.ReportMetric(float64(unordered), "races-unordered")
	b.ReportMetric(float64(ordered), "races-ordered")
}

// BenchmarkTimerClearExtension measures the §7 extension's cost and yield.
func BenchmarkTimerClearExtension(b *testing.B) {
	extra := 0
	for i := 0; i < b.N; i++ {
		extra = 0
		for s := 0; s < 10; s++ {
			site := corpusGen(1)(s)
			cfg := DefaultConfig(1)
			base := len(RunConfig(site, cfg).RawReports)
			cfg.Browser.InstrumentTimerClears = true
			ext := len(RunConfig(site, cfg).RawReports)
			extra += ext - base
		}
	}
	b.ReportMetric(float64(extra), "extra-races")
}

// BenchmarkSeedSweep measures multi-schedule aggregation (5 seeds over one
// busy site) and reports schedule stability.
func BenchmarkSeedSweep(b *testing.B) {
	site := sitegen.Generate(sitegen.SpecFor(1, 40))
	stable, flaky := 0, 0
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sweep, err := RunSeedsParallel(site, DefaultConfig(1), 5, ParallelConfig{Workers: 1})
		if err != nil {
			b.Fatal(err)
		}
		s, f := sweep.Stable()
		stable, flaky = len(s), len(f)
	}
	b.ReportMetric(float64(stable), "stable-locs")
	b.ReportMetric(float64(flaky), "flaky-locs")
}

// BenchmarkHarmOracle isolates the adversarial-replay classification.
func BenchmarkHarmOracle(b *testing.B) {
	site := sitegen.Generate(sitegen.SpecFor(1, 7)) // Gomez archetype
	cfg := DefaultConfig(1)
	cfg.Filters = true
	res := RunConfig(site, cfg)
	b.ResetTimer()
	harmful := 0
	for i := 0; i < b.N; i++ {
		h, err := ClassifyHarmfulParallel(site, cfg, res, ParallelConfig{Workers: 1})
		if err != nil {
			b.Fatal(err)
		}
		harmful = h.Total()
	}
	b.ReportMetric(float64(harmful), "harmful")
}

// ---- parallel corpus engine (tentpole benchmarks) ----

// parallelBenchWorkers is the sharding width the acceptance criterion
// names; on machines with fewer cores the speedup degrades gracefully
// toward 1× (the engine itself adds no serial bottleneck — workers only
// synchronize on an atomic index).
const parallelBenchWorkers = 4

// BenchmarkCorpusParallel runs the full 100-site corpus sweep at 4
// workers and reports the measured speedup over the serial path, after
// asserting the parallel sweep found exactly the serial race counts.
func BenchmarkCorpusParallel(b *testing.B) {
	const n = 100
	cfg := DefaultConfig(1)
	t0 := time.Now()
	serial, err := RunCorpusParallel(n, corpusGen(1), cfg, ParallelConfig{Workers: 1})
	if err != nil {
		b.Fatal(err)
	}
	serialTime := time.Since(t0)
	serialRaces := 0
	for _, r := range serial {
		serialRaces += len(r.Reports)
	}
	b.ResetTimer()
	races := 0
	for i := 0; i < b.N; i++ {
		results, err := RunCorpusParallel(n, corpusGen(1), cfg,
			ParallelConfig{Workers: parallelBenchWorkers})
		if err != nil {
			b.Fatal(err)
		}
		races = 0
		for _, r := range results {
			races += len(r.Reports)
		}
		if races != serialRaces {
			b.Fatalf("parallel corpus found %d races, serial %d", races, serialRaces)
		}
	}
	b.ReportMetric(float64(races), "races")
	b.ReportMetric(serialTime.Seconds()/(b.Elapsed().Seconds()/float64(b.N)), "speedup-vs-serial")
}

// BenchmarkScheduleSweepParallel runs the delay-one schedule sweep of one
// resource-heavy site at 4 workers, reporting speedup over the serial
// sweep after asserting identical aggregation.
func BenchmarkScheduleSweepParallel(b *testing.B) {
	site := sitegen.Generate(sitegen.SpecFor(1, 11)) // busiest page: most resources, most runs
	cfg := DefaultConfig(1)
	t0 := time.Now()
	serial, err := ExploreSchedulesParallel(site, cfg, ParallelConfig{Workers: 1})
	if err != nil {
		b.Fatal(err)
	}
	serialTime := time.Since(t0)
	b.ReportAllocs()
	b.ResetTimer()
	runs := 0
	for i := 0; i < b.N; i++ {
		sweep, err := ExploreSchedulesParallel(site, cfg,
			ParallelConfig{Workers: parallelBenchWorkers})
		if err != nil {
			b.Fatal(err)
		}
		runs = sweep.Runs
		if len(sweep.Reports) != len(serial.Reports) || sweep.Runs != serial.Runs {
			b.Fatalf("parallel sweep %d reports over %d runs, serial %d over %d",
				len(sweep.Reports), sweep.Runs, len(serial.Reports), serial.Runs)
		}
	}
	b.ReportMetric(float64(runs), "runs")
	b.ReportMetric(serialTime.Seconds()/(b.Elapsed().Seconds()/float64(b.N)), "speedup-vs-serial")
}

// BenchmarkSeedSweepParallel shards the 8-seed sweep of one busy site.
func BenchmarkSeedSweepParallel(b *testing.B) {
	site := sitegen.Generate(sitegen.SpecFor(1, 40))
	cfg := DefaultConfig(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunSeedsParallel(site, cfg, 8,
			ParallelConfig{Workers: parallelBenchWorkers}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFaultSweep runs the default six-plan fault sweep of the 8
// fault pages on one worker per op.
func BenchmarkFaultSweep(b *testing.B) {
	sites := make([]*loader.Site, 8)
	for i := range sites {
		sites[i] = sitegen.Generate(sitegen.FaultSpec(i))
	}
	cfg := DefaultConfig(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, site := range sites {
			if _, err := RunFaultSweep(site, cfg, FaultSweepConfig{},
				ParallelConfig{Workers: 1}); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// ---- schedule pruning ----

// pruneBenchSites is the pruning benchmarks' page set: the 8 sched
// pages (schedule-dependent, so seeds collapse into few classes) and
// the first 8 corpus pages.
func pruneBenchSites() []*loader.Site {
	sites := make([]*loader.Site, 0, 16)
	for i := 0; i < 8; i++ {
		sites = append(sites, sitegen.Generate(sitegen.SchedSpec(i)))
	}
	for i := 0; i < 8; i++ {
		sites = append(sites, corpusGen(1)(i))
	}
	return sites
}

// BenchmarkFingerprint isolates the canonical trace-class fingerprint
// over recorded runs of the sched and corpus pages; one op fingerprints
// all 16. In the warm arm the fingerprint's location table carries over
// from op to op, as it does across a sweep's executions; the cold arm
// clears it before every fingerprint, the cost of a page's first
// execution.
func BenchmarkFingerprint(b *testing.B) {
	var results []*Result
	for _, site := range pruneBenchSites() {
		cfg := DefaultConfig(1)
		cfg.RecordTrace = true
		results = append(results, RunConfig(site, cfg))
	}
	for _, arm := range []string{"warm", "cold"} {
		b.Run(arm, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, res := range results {
					if arm == "cold" {
						clearFPTables()
					}
					_ = fingerprintOf(res)
				}
			}
		})
	}
}

// clearFPTables empties the location and dispatch-label tables of the
// pooled fingerprint scratch, so the next fingerprint on this goroutine
// computes every key and label afresh.
func clearFPTables() {
	s := fpPool.Get().(*fpScratch)
	clear(s.byLoc)
	clear(s.byKey)
	clear(s.ops)
	fpPool.Put(s)
}

// seedSweepBench runs an 8-seed sweep of every pruning benchmark page on
// one worker per op.
func seedSweepBench(b *testing.B, prune bool) {
	sites := pruneBenchSites()
	cfg := DefaultConfig(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, site := range sites {
			if _, err := RunSeedsParallel(site, cfg, 8,
				ParallelConfig{Workers: 1, Prune: prune}); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkSeedSweepPruned and BenchmarkSeedSweepUnpruned compare the
// two seed-sweep paths on the same pages: the pruned one runs every seed
// with its detector as the unpruned one does, and also records its trace
// and fingerprints it, so the gap is the cost of the class report.
func BenchmarkSeedSweepPruned(b *testing.B) { seedSweepBench(b, true) }

func BenchmarkSeedSweepUnpruned(b *testing.B) { seedSweepBench(b, false) }

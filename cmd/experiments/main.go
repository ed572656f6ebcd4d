// Command experiments regenerates the evaluation artifacts of "Race
// Detection for Web Applications" (PLDI 2012): Table 1 (raw race counts
// over the synthetic Fortune-100-style corpus), Table 2 (filtered races
// with harmfulness), the instrumentation-overhead measurement of §6, and
// the graph-vs-vector-clock ablation. EXPERIMENTS.md records a reference
// run's output next to the paper's numbers.
//
// Usage:
//
//	experiments [-sites 100] [-seed 1] [-workers N] [-progress]
//	            [-table1] [-table2] [-perf] [-ablate] [-extensions]
//	            [-faults] [-obs] [-predictive] [-sampled] [-prune]
//	            [-metrics-dir DIR] [-trace FILE] [-pprof PREFIX]
//
// With no experiment flags, everything runs. Corpus sweeps (Tables 1-2,
// the E6 ablations) shard over -workers; results are identical at any
// worker count (the engine aggregates in input order), so the flag only
// changes wall-clock time. -progress streams live per-worker counters to
// stderr.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"webracer"
	"webracer/internal/hb"
	"webracer/internal/loader"
	"webracer/internal/obs"
	"webracer/internal/pool"
	"webracer/internal/race"
	"webracer/internal/report"
	"webracer/internal/serve"
	"webracer/internal/sitegen"
)

// workers and showProgress are process-wide experiment knobs.
var (
	workers      int
	showProgress bool
)

func main() {
	var (
		sites  = flag.Int("sites", 100, "number of synthetic sites in the corpus")
		seed   = flag.Int64("seed", 1, "corpus seed")
		table1 = flag.Bool("table1", false, "regenerate Table 1 (raw counts)")
		table2 = flag.Bool("table2", false, "regenerate Table 2 (filtered + harmful)")
		perf   = flag.Bool("perf", false, "measure instrumentation overhead (§6 Performance)")
		ablate = flag.Bool("ablate", false, "graph vs vector-clock detector ablation (E4)")
		exts   = flag.Bool("extensions", false, "beyond-the-paper extension ablations (E6)")
		flt    = flag.Bool("faults", false, "deterministic fault injection: races vs fault rate (E8)")
		obsE   = flag.Bool("obs", false, "deterministic telemetry: per-site instrumentation table from metrics (E9)")
		predE  = flag.Bool("predictive", false, "single-trace predictive detection: sweep-recovery recall table (E10)")
		sampE  = flag.Bool("sampled", false, "sampled fast tier: cost vs recall vs the exact detector (E11)")
		pruneE = flag.Bool("prune", false, "HB-equivalence schedule pruning: trace classes of seed sweeps at identical results (E12)")
		mDir   = flag.String("metrics-dir", "", "with -obs: also write each site's metrics JSON into this directory (files match testdata/golden/metrics-*.json)")
		traceF = flag.String("trace", "", "with -obs: also write fig1's virtual-time Chrome trace to this file")
		pprofP = flag.String("pprof", "", "write process CPU and heap profiles to <prefix>.cpu.pprof and <prefix>.heap.pprof")
	)
	flag.IntVar(&workers, "workers", runtime.NumCPU(), "parallel workers for corpus sweeps (identical results at any count)")
	flag.BoolVar(&showProgress, "progress", false, "stream live per-worker sweep counters to stderr")
	flag.Parse()
	all := !*table1 && !*table2 && !*perf && !*ablate && !*exts && !*flt && !*obsE && !*predE && !*sampE && !*pruneE

	if *pprofP != "" {
		finish, err := obs.Profile(*pprofP)
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(2)
		}
		defer func() {
			if err := finish(); err != nil {
				fmt.Fprintln(os.Stderr, "experiments:", err)
			}
		}()
	}

	if *table1 || all {
		runTable1(*seed, *sites)
	}
	if *table2 || all {
		runTable2(*seed, *sites)
	}
	if *perf || all {
		runPerf(*seed)
	}
	if *ablate || all {
		if err := runAblation(*seed, *sites); err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
	}
	if *exts || all {
		runExtensions(*seed, *sites)
	}
	if *flt || all {
		runFaults(*seed)
	}
	if *obsE || all {
		runObs(*seed, *mDir, *traceF)
	}
	if *predE || all {
		runPredictive(*seed)
	}
	if *sampE || all {
		runSampledTier(*seed, *sites)
	}
	if *pruneE || all {
		runPrune(*seed)
	}
}

// watchProgress streams snapshots of a sweep's counters to stderr until
// the returned stop function is called. No-op unless -progress is set.
func watchProgress(label string, c *webracer.Progress) (stop func()) {
	if !showProgress {
		return func() {}
	}
	done := make(chan struct{})
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		tick := time.NewTicker(500 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-done:
				return
			case <-tick.C:
				s := c.Snapshot()
				perWorker := make([]string, len(s.PerWorker))
				for i, n := range s.PerWorker {
					perWorker[i] = fmt.Sprint(n)
				}
				fmt.Fprintf(os.Stderr, "%s: %d/%d done, %d in flight, %.1f/s, per-worker [%s]\n",
					label, s.Done, s.Total, s.InFlight, s.PerSecond,
					strings.Join(perWorker, " "))
			}
		}
	}()
	return func() { close(done); <-finished }
}

// sweepStats formats the standard "n sites in t" suffix with the sweep's
// worker count and throughput.
func sweepStats(n int, elapsed time.Duration) string {
	return fmt.Sprintf("%d sites in %v, %d worker(s), %.1f sites/s",
		n, elapsed.Round(time.Millisecond), workers,
		float64(n)/elapsed.Seconds())
}

func kb(b int) string { return fmt.Sprintf("%.0fKiB", float64(b)/1024) }

// runExtensions measures the E6 extension knobs over a corpus slice: the
// §7 timer-clear instrumentation, the Appendix A same-group handler
// ordering, and the online vector-clock oracle.
func runExtensions(seed int64, n int) {
	if n > 25 {
		n = 25
	}
	fmt.Printf("== E6: extension ablations over %d sites ==\n", n)
	runWith := func(mut func(*webracer.Config)) int {
		perSite, err := pool.Map(pool.Options{Workers: workers}, n, func(i int) int {
			cfg := webracer.DefaultConfig(seed)
			cfg.Seed = seed + int64(i)*101
			mut(&cfg)
			return len(webracer.RunConfig(sitegen.Generate(sitegen.SpecFor(seed, i)), cfg).RawReports)
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
		}
		races := 0
		for _, r := range perSite {
			races += r
		}
		return races
	}
	base := runWith(func(*webracer.Config) {})
	timer := runWith(func(c *webracer.Config) { c.Browser.InstrumentTimerClears = true })
	ordered := runWith(func(c *webracer.Config) { c.Browser.OrderSameTargetHandlers = true })
	liveVC := runWith(func(c *webracer.Config) { c.Detector = webracer.DetectorPairwiseVC })
	fmt.Printf("baseline (paper semantics):        %4d races\n", base)
	fmt.Printf("+ timer-clear instrumentation:     %4d races (Δ %+d — §7 future work)\n", timer, timer-base)
	fmt.Printf("+ ordered same-target handlers:    %4d races (Δ %+d — Appendix A variant)\n", ordered, ordered-base)
	fmt.Printf("online vector-clock oracle:        %4d races (must equal baseline)\n", liveVC)
	if liveVC != base {
		fmt.Fprintln(os.Stderr, "WARNING: live VC oracle disagrees with the graph")
	}
	fmt.Println()
}

func corpusResults(seed int64, n int, filters bool) []*webracer.Result {
	cfg := webracer.DefaultConfig(seed)
	cfg.Filters = filters
	var prog webracer.Progress
	stop := watchProgress("corpus", &prog)
	defer stop()
	results, err := webracer.RunCorpusParallel(n, func(i int) *loader.Site {
		return sitegen.Generate(sitegen.SpecFor(seed, i))
	}, cfg, webracer.ParallelConfig{Workers: workers, Progress: &prog})
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
	}
	return results
}

// runTable1 prints the paper's Table 1: mean/median/max races of each type
// across the corpus, no filtering.
func runTable1(seed int64, n int) {
	start := time.Now()
	results := corpusResults(seed, n, false)
	counts := make([]report.Counts, len(results))
	for i, r := range results {
		counts[i] = r.RawCounts
	}
	t1 := report.BuildTable1(counts)
	fmt.Printf("== Table 1: races per site across %d synthetic sites (paper: 100 Fortune 100 sites) ==\n", n)
	fmt.Printf("%-15s %8s %8s %6s   | paper: mean median max\n", "Race type", "Mean", "Median", "Max")
	paper := map[string][3]string{
		"HTML":          {"2.2", "0.0", "112"},
		"Function":      {"0.4", "0.0", "6"},
		"Variable":      {"22.4", "5.5", "269"},
		"EventDispatch": {"22.3", "7.0", "198"},
		"All":           {"47.3", "27.0", "278"},
	}
	for _, name := range []string{"HTML", "Function", "Variable", "EventDispatch", "All"} {
		s := t1.Rows[name]
		p := paper[name]
		fmt.Printf("%-15s %8.1f %8.1f %6d   | %7s %6s %4s\n", name, s.Mean, s.Median, s.Max, p[0], p[1], p[2])
	}
	fmt.Printf("(%s)\n\n", sweepStats(n, time.Since(start)))
}

// runTable2 prints the paper's Table 2: per-site filtered counts with
// harmful races in parentheses, plus the totals row.
func runTable2(seed int64, n int) {
	start := time.Now()
	cfg := webracer.DefaultConfig(seed)
	cfg.Filters = true
	fmt.Printf("== Table 2: filtered races per site (harmful in parentheses) ==\n")
	// One unit per site: the primary run plus its adversarial replays.
	// Rows land at their site index, so the table is identical at any
	// worker count.
	var prog webracer.Progress
	stop := watchProgress("table2", &prog)
	rows, err := pool.Map(pool.Options{Workers: workers, Counters: &prog}, n, func(i int) report.Table2Row {
		spec := sitegen.SpecFor(seed, i)
		site := sitegen.Generate(spec)
		c := cfg
		c.Seed = cfg.Seed + int64(i)*101
		res := webracer.RunConfig(site, c)
		h, err := webracer.ClassifyHarmfulParallel(site, c, res, webracer.ParallelConfig{Workers: 1})
		if err != nil {
			panic(err) // a recovered panic of an adversarial run: re-raised for the outer pool to report
		}
		var hc report.Counts
		for j, r := range res.Reports {
			if h.Harmful[j] {
				hc[report.Classify(r)]++
			}
		}
		return report.Table2Row{Site: spec.Name, Counts: res.Counts, Harmful: hc}
	})
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
	}
	t2 := report.BuildTable2(rows)
	if err := t2.Write(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
	}
	fmt.Printf("paper Total:                    219 (32)        37 (7)         8 (5)       91 (83)\n")
	fmt.Printf("(%d sites with races, %s)\n\n", len(t2.Rows), sweepStats(n, time.Since(start)))
}

// cpuWorkload is a SunSpider-flavoured CPU-bound page: nested loops,
// recursion, string building and array churn.
const cpuWorkload = `
<script>
function fib(n) { return n < 2 ? n : fib(n-1) + fib(n-2); }
function work() {
  var acc = 0;
  for (var i = 0; i < 200; i++) {
    acc = acc + i * i % 7;
  }
  var s = "";
  for (var j = 0; j < 60; j++) { s = s + "x" + j; }
  var arr = [];
  for (var k = 0; k < 120; k++) { arr.push(k); }
  var sum = 0;
  for (var m = 0; m < arr.length; m++) { sum += arr[m]; }
  return acc + s.length + sum + fib(12);
}
total = 0;
for (var r = 0; r < 20; r++) { total = total + work(); }
</script>`

// sharedWorkload is the opposite extreme: nearly every access touches
// instrumented state (globals, object properties, DOM lookups), the case
// WebRacer's graph traversals made expensive.
const sharedWorkload = `
<div id="a"></div><div id="b"></div><div id="c"></div>
<script>
g1 = 0; g2 = 0; g3 = 0;
obj = {x: 0, y: 0};
for (var i = 0; i < 4000; i++) {
  g1 = g1 + 1;
  g2 = g2 + g1;
  g3 = g1 + g2;
  obj.x = obj.x + g3;
  obj.y = obj.x - g2;
  var el = document.getElementById(i % 2 == 0 ? "a" : "b");
  el.className = "k" + (g1 % 5);
}
</script>`

// runPerf measures the §6 Performance quantity: slowdown with the detector
// attached vs the uninstrumented browser, on both a CPU-bound page (local
// computation, the SunSpider analogue) and a shared-state-heavy page.
func runPerf(seed int64) {
	measure := func(name, page string) {
		site := loader.NewSite(name).Add("index.html", page)
		run := func(detector bool) time.Duration {
			start := time.Now()
			const reps = 30
			for i := 0; i < reps; i++ {
				cfg := webracer.DefaultConfig(seed + int64(i))
				cfg.Explore = false
				cfg.Browser.NoInstrument = !detector
				webracer.RunConfig(site, cfg)
			}
			return time.Since(start) / reps
		}
		off := run(false)
		on := run(true)
		fmt.Printf("%-22s off: %10v/page   on: %10v/page   slowdown: %.1fx\n",
			name+":", off.Round(time.Microsecond), on.Round(time.Microsecond),
			float64(on)/float64(off))
	}
	fmt.Printf("== §6 Performance: instrumentation overhead ==\n")
	measure("cpu-bound (SunSpider)", cpuWorkload)
	measure("shared-state heavy", sharedWorkload)
	fmt.Printf("(paper: ~500x vs JIT-enabled WebKit. That figure bundles 'interpreter instead\n")
	fmt.Printf(" of JIT' with detection; our baseline is already an interpreter, so these are\n")
	fmt.Printf(" detection-only overheads. See EXPERIMENTS.md E3 for the full argument.)\n\n")
}

// runAblation compares happens-before representations on the recorded
// corpus traces (E4): the paper's graph reachability and the
// epoch-optimized vector clocks (lazy chain coordinates, clock vectors
// materialized only for genuinely shared locations). The two
// representations must find the same races; an error says they did not.
func runAblation(seed int64, n int) error {
	if n > 30 {
		n = 30 // traces are memory-hungry; a slice of the corpus suffices
	}
	cfg := webracer.DefaultConfig(seed)
	cfg.RecordTrace = true
	p := webracer.ParallelConfig{Workers: workers}
	results, err := webracer.RunCorpusParallel(n, func(i int) *loader.Site {
		return sitegen.Generate(sitegen.SpecFor(seed, i))
	}, cfg, p)
	if err != nil {
		return err
	}
	// The representations are also compared at §6 scale: wide pages with
	// thousands of operations across hundreds of handler tasks.
	stress, err := webracer.RunCorpusParallel(4, func(i int) *loader.Site {
		return sitegen.Generate(sitegen.StressSpec(i))
	}, cfg, p)
	if err != nil {
		return err
	}
	results = append(results, stress...)
	graphRaces, epochRaces := 0, 0
	graphBytes, epochBytes := 0, 0
	ops, mats := 0, 0
	for _, res := range results {
		ops += res.Ops
	}

	runtime.GC() // settle between phases so no arm pays its predecessor's debt
	t0 := time.Now()
	for _, res := range results {
		d := race.NewPairwise(res.Browser.HB)
		graphRaces += len(race.Replay(res.Browser.Trace(), d))
	}
	graphTime := time.Since(t0)
	for _, res := range results {
		graphBytes += res.Browser.HB.MemoryBytes()
	}

	runtime.GC()
	t1 := time.Now()
	for _, res := range results {
		trace := res.Browser.Trace()
		clocks := hb.NewClocks(res.Browser.HB)
		d := race.NewPairwise(clocks, race.LocHint(len(trace)/4))
		epochRaces += len(race.Replay(trace, d))
		epochBytes += clocks.MemoryBytes()
		mats += clocks.MaterializedClocks()
	}
	epochTime := time.Since(t1)

	fmt.Printf("== E4 ablation: happens-before representation (replay over %d recorded sites) ==\n", len(results))
	fmt.Printf("graph reachability:  %v, %d races, %s of memoized closures\n",
		graphTime.Round(time.Millisecond), graphRaces, kb(graphBytes))
	fmt.Printf("epoch vector clocks: %v, %d races, %s of clocks, %d of %d ops materialized\n",
		epochTime.Round(time.Millisecond), epochRaces, kb(epochBytes), mats, ops)
	fmt.Println()
	if graphRaces != epochRaces {
		return fmt.Errorf("E4: representations disagree (graph %d races, epoch %d)", graphRaces, epochRaces)
	}
	return nil
}

// runFaults is E8: deterministic fault injection over the fault corpus.
// Each site runs fault-free and under a full rotation of plans (five
// single-shape plans plus a mix, at three stepped fault rates); the table
// reports how many racing locations each rate tier exposes that the
// fault-free baseline cannot reach. Per-site sweeps run serially inside
// the per-site parallelism, so results are identical at any -workers.
func runFaults(seed int64) {
	const nSites, nPlans = 8, 18
	fmt.Printf("== E8: fault injection over %d fault-corpus sites (%d plans each) ==\n", nSites, nPlans)
	start := time.Now()
	rates := []float64{0.15, 0.35, 0.6}
	prog := &webracer.Progress{}
	stop := watchProgress("E8", prog)
	sweeps, err := pool.Map(pool.Options{Workers: workers, Counters: prog}, nSites, func(i int) *webracer.FaultSweep {
		cfg := webracer.DefaultConfig(seed + int64(i)*101)
		sweep, _ := webracer.RunFaultSweep(sitegen.Generate(sitegen.FaultSpec(i)), cfg,
			webracer.FaultSweepConfig{Plans: nPlans}, webracer.ParallelConfig{Workers: 1})
		return sweep
	})
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
	}
	baseline, perRate := 0, make([]int, len(rates))
	exposed, degraded, skipped := 0, 0, 0
	for _, sweep := range sweeps {
		if sweep == nil {
			continue
		}
		baseline += len(sweep.Runs[0].Races)
		exposed += len(sweep.NewlyExposed)
		degraded += len(sweep.Degraded)
		skipped += len(sweep.Skipped)
		base := map[string]bool{}
		for _, loc := range sweep.Runs[0].Races {
			base[loc] = true
		}
		for u, run := range sweep.Runs[1:] {
			tier := u / 6 % len(rates) // ForSeed's rate rotation
			seen := map[string]bool{}
			for _, loc := range run.Races {
				if !base[loc] && !seen[loc] {
					seen[loc] = true
				}
			}
			perRate[tier] += len(seen)
		}
	}
	fmt.Printf("fault-free baseline:  %4d racing location(s)\n", baseline)
	for t, rate := range rates {
		fmt.Printf("rate %.2f plans:      %4d fault-only location-hit(s) across 6 plans\n", rate, perRate[t])
	}
	fmt.Printf("distinct fault-exposed locations: %d (degraded %d, skipped %d)\n", exposed, degraded, skipped)
	fmt.Printf("(%s; same numbers at any -workers — every injection is a pure\n", sweepStats(nSites*(nPlans+1), time.Since(start)))
	fmt.Printf(" function of (plan seed, URL, fetch index). See EXPERIMENTS.md E8.)\n\n")
}

// runObs is E9: the deterministic telemetry layer. It re-runs the three
// golden sites (the paper's Fig. 1 and Fig. 4 plus one synthetic corpus
// site) with -metrics-style telemetry enabled and reprints the §6-style
// instrumentation table straight from the counter registry. With
// -metrics-dir the per-site snapshots are written using the same names as
// testdata/golden/metrics-*.json so scripts/metricsdiff.sh can diff them;
// with -trace, fig1's virtual-time Chrome trace is exported for Perfetto.
func runObs(seed int64, metricsDir, traceFile string) {
	cases := []struct {
		name string
		site *loader.Site
	}{
		{"fig1", sitegen.Fig1()},
		{"fig4", sitegen.Fig4()},
		{"sitegen-07", sitegen.Generate(sitegen.SpecFor(1, 7))},
	}
	fmt.Printf("== E9: deterministic telemetry over the %d golden sites ==\n", len(cases))
	cfg := webracer.DefaultConfig(seed)
	cfg.Telemetry = true
	results, err := webracer.RunCorpusParallel(len(cases), func(i int) *loader.Site {
		return cases[i].site
	}, cfg, webracer.ParallelConfig{Workers: workers})
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		return
	}

	cols := []struct{ header, key string }{
		{"ops", "browser.ops"},
		{"hb-nodes", "hb.nodes"},
		{"hb-edges", "hb.edges"},
		{"js-steps", "js.steps"},
		{"checks", "detector.checks"},
		{"epoch%", ""}, // computed below
		{"races", "race.reports"},
	}
	fmt.Printf("%-12s", "site")
	for _, c := range cols {
		fmt.Printf(" %9s", c.header)
	}
	fmt.Println()
	for i, res := range results {
		if res == nil || res.Metrics == nil {
			fmt.Fprintf(os.Stderr, "experiments: %s produced no metrics\n", cases[i].name)
			continue
		}
		snap := res.Metrics.Snapshot()
		fmt.Printf("%-12s", cases[i].name)
		for _, c := range cols {
			if c.header == "epoch%" {
				pct := 0.0
				if checks := snap["detector.checks"]; checks > 0 {
					pct = 100 * float64(snap["detector.epoch_hits"]) / float64(checks)
				}
				fmt.Printf(" %8.1f%%", pct)
				continue
			}
			fmt.Printf(" %9d", snap[c.key])
		}
		fmt.Println()
		if metricsDir != "" {
			path := metricsDir + "/metrics-" + cases[i].name + ".json"
			f, err := os.Create(path)
			if err != nil {
				fmt.Fprintln(os.Stderr, "experiments:", err)
				continue
			}
			if err := res.Metrics.WriteJSON(f); err == nil {
				err = f.Close()
			} else {
				f.Close()
			}
			if err != nil {
				fmt.Fprintln(os.Stderr, "experiments:", err)
			}
		}
	}

	// The service layer's histogram export: the fixed golden workload must
	// produce byte-identical stable exports at workers 1 and 4 — the same
	// identity TestGoldenMetricsServe pins — and the snapshot joins the
	// metricsdiff gate as metrics-serve.json.
	sb1, err := serve.GoldenWorkload(1)
	if err == nil {
		var sb4 []byte
		if sb4, err = serve.GoldenWorkload(4); err == nil && !bytes.Equal(sb1, sb4) {
			err = fmt.Errorf("serve golden workload diverged across worker counts")
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
	} else {
		fmt.Printf("serve workload: stable metrics export byte-identical at workers 1 and 4 (%dB)\n", len(sb1))
		if metricsDir != "" {
			if werr := os.WriteFile(metricsDir+"/metrics-serve.json", sb1, 0o644); werr != nil {
				fmt.Fprintln(os.Stderr, "experiments:", werr)
			}
		}
	}

	if traceFile != "" {
		res := webracer.Run(cases[0].site, webracer.WithSeed(seed), webracer.WithTimeTrace())
		f, err := os.Create(traceFile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
		} else {
			if err := res.Trace.WriteJSON(f); err == nil {
				err = f.Close()
			} else {
				f.Close()
			}
			if err != nil {
				fmt.Fprintln(os.Stderr, "experiments:", err)
			} else {
				fmt.Printf("(fig1 virtual-time trace written to %s — load in chrome://tracing or ui.perfetto.dev)\n", traceFile)
			}
		}
	}
	// The predictive detector carries its own counters
	// (race.predictive.{predicted,confirmed,witness_events}); pin them on
	// the schedule-dependent sched-00 page the E10 battery uses so
	// scripts/metricsdiff.sh covers that counter family too.
	pcfg := webracer.DefaultConfig(seed)
	pcfg.Telemetry = true
	pcfg.Detector = webracer.DetectorPredictive
	pres := webracer.RunConfig(sitegen.Generate(sitegen.SchedSpec(0)), pcfg)
	if pres.Metrics != nil {
		snap := pres.Metrics.Snapshot()
		fmt.Printf("%-12s predictive counters: %d predicted, %d confirmed, %d witness event(s)\n",
			"sched-00", snap["race.predictive.predicted"],
			snap["race.predictive.confirmed"], snap["race.predictive.witness_events"])
		if metricsDir != "" {
			path := metricsDir + "/metrics-sched-predictive.json"
			f, err := os.Create(path)
			if err != nil {
				fmt.Fprintln(os.Stderr, "experiments:", err)
			} else {
				if err := pres.Metrics.WriteJSON(f); err == nil {
					err = f.Close()
				} else {
					f.Close()
				}
				if err != nil {
					fmt.Fprintln(os.Stderr, "experiments:", err)
				}
			}
		}
	}

	// The sampled tier's counters (race.sampled.*) are pinned on the same
	// corpus site the table above covers, at the default rate, so
	// scripts/metricsdiff.sh gates that counter family too.
	scfg := webracer.DefaultConfig(seed)
	scfg.Telemetry = true
	scfg.Detector = webracer.DetectorSampled
	sres := webracer.RunConfig(sitegen.Generate(sitegen.SpecFor(1, 7)), scfg)
	if sres.Metrics != nil {
		snap := sres.Metrics.Snapshot()
		fmt.Printf("%-12s sampled counters: rate %d%%, %d/%d locations sampled, %d hit(s), escalated %d\n",
			"sitegen-07", snap["race.sampled.rate_pct"], snap["race.sampled.sampled_locations"],
			snap["race.sampled.locations"], snap["race.sampled.hits"], snap["race.sampled.escalated"])
		if metricsDir != "" {
			path := metricsDir + "/metrics-sampled.json"
			f, err := os.Create(path)
			if err != nil {
				fmt.Fprintln(os.Stderr, "experiments:", err)
			} else {
				if err := sres.Metrics.WriteJSON(f); err == nil {
					err = f.Close()
				} else {
					f.Close()
				}
				if err != nil {
					fmt.Fprintln(os.Stderr, "experiments:", err)
				}
			}
		}
	}

	// The pruning layer's counters (explore.classes.*) are pinned on a
	// pruned 16-seed sweep of the same sched-00 page, so
	// scripts/metricsdiff.sh gates that counter family too.
	var classes webracer.ClassStats
	if _, err := webracer.RunSeedsParallel(sitegen.Generate(sitegen.SchedSpec(0)),
		webracer.DefaultConfig(seed), 16,
		webracer.ParallelConfig{Workers: workers, Prune: true, Classes: &classes}); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
	} else {
		fmt.Printf("%-12s prune counters: %d executions, %d class(es), %d pruned\n",
			"sched-00", classes.Executions, classes.Distinct, classes.Pruned)
		if metricsDir != "" {
			m := obs.New()
			classes.Fold(m)
			path := metricsDir + "/metrics-sched-prune.json"
			f, err := os.Create(path)
			if err != nil {
				fmt.Fprintln(os.Stderr, "experiments:", err)
			} else {
				if err := m.WriteJSON(f); err == nil {
					err = f.Close()
				} else {
					f.Close()
				}
				if err != nil {
					fmt.Fprintln(os.Stderr, "experiments:", err)
				}
			}
		}
	}

	fmt.Printf("(counters fold end-of-run state; identical bytes at any -workers and across runs.\n")
	fmt.Printf(" See EXPERIMENTS.md E9 and DESIGN.md \"Observability\".)\n\n")
}

// runPredictive is E10: single-trace predictive detection versus the
// K-seed sweep. For each fixture site it runs the 32-seed ground-truth
// sweep, then one predictive pass at the base seed, and tabulates how
// much of the sweep's racing-location set the single trace recovers —
// plus what prediction finds that no seed reached at all. Every predicted
// race is re-verified through its witness reordering, so the confirmed
// column doubles as a soundness check.
func runPredictive(seed int64) {
	cases := []struct {
		name string
		site *loader.Site
	}{
		{"fig1", sitegen.Fig1()},
		{"fig4", sitegen.Fig4()},
		{"sched-00", sitegen.Generate(sitegen.SchedSpec(0))},
		{"sched-01", sitegen.Generate(sitegen.SchedSpec(1))},
	}
	const sweepSeeds = 32
	fmt.Printf("== E10: predictive recall vs a %d-seed sweep ==\n", sweepSeeds)
	start := time.Now()
	fmt.Printf("%-12s %6s %6s %6s %7s %10s %10s %9s\n",
		"site", "sweep", "flaky", "recov", "recall", "predicted", "confirmed", "pred-only")
	for _, tc := range cases {
		rec, err := webracer.MeasureRecovery(tc.site, webracer.DefaultConfig(seed), sweepSeeds,
			webracer.ParallelConfig{Workers: workers})
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			continue
		}
		fmt.Printf("%-12s %6d %6d %6d %6.0f%% %10d %10d %9d\n",
			tc.name, len(rec.SweepLocations), len(rec.FlakyLocations), len(rec.Recovered),
			100*rec.Recall(), rec.Predicted, rec.Confirmed, len(rec.PredictedOnly))
	}
	fmt.Printf("(%s; recall counts sweep locations only, so predicted-only races\n",
		sweepStats(len(cases)*(sweepSeeds+1), time.Since(start)))
	fmt.Printf(" never inflate it. See EXPERIMENTS.md E10 and DESIGN.md \"Predictive detection\".)\n\n")
}

// runSampledTier is E11: what the sampled fast tier costs and recovers at
// each rate, against the exact detector's ground truth on the same corpus
// slice. Cost shows up as the fraction of locations shadowed and accesses
// checked; recovery as racing locations recalled (escalation replays a
// hit site's run under the exact detector, so one cheap hit buys that
// site's full location set).
func runSampledTier(seed int64, n int) {
	if n > 50 {
		n = 50
	}
	gen := func(i int) *loader.Site { return sitegen.Generate(sitegen.SpecFor(seed, i)) }
	fmt.Printf("== E11: sampled tier cost vs recall over %d corpus sites ==\n", n)
	start := time.Now()

	exactCfg := webracer.DefaultConfig(seed)
	exactCfg.Detector = webracer.DetectorPairwiseVC
	exact, err := webracer.RunCorpusParallel(n, gen, exactCfg, webracer.ParallelConfig{Workers: workers})
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		return
	}
	perSite := make([]map[string]bool, n)
	exactLocs, racySites := 0, 0
	for i, res := range exact {
		perSite[i] = map[string]bool{}
		for _, r := range res.RawReports {
			perSite[i][r.Loc.String()] = true
		}
		exactLocs += len(perSite[i])
		if len(perSite[i]) > 0 {
			racySites++
		}
	}
	fmt.Printf("exact ground truth (pairwise-vc): %d racing location(s) on %d/%d sites\n",
		exactLocs, racySites, n)

	fmt.Printf("%-6s %9s %9s %6s %9s %8s %10s\n",
		"rate", "sampled%", "checked%", "hits", "escalate", "recall", "time")
	for _, rate := range []float64{0.1, 0.25, 0.5, 0.75, 1.0} {
		cfg := webracer.DefaultConfig(seed)
		cfg.Detector = webracer.DetectorSampled
		cfg.SampleRate = rate
		t0 := time.Now()
		results, err := webracer.RunCorpusParallel(n, gen, cfg, webracer.ParallelConfig{Workers: workers})
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			return
		}
		var sampledLocs, totalLocs, checked, skipped int64
		hits, escalations, recovered := 0, 0, 0
		for i, res := range results {
			si := res.Sampled
			if si == nil {
				continue
			}
			sampledLocs += int64(si.Stats.SampledLocations)
			totalLocs += int64(si.Stats.Locations)
			checked += si.Stats.Checked
			skipped += si.Stats.Skipped
			hits += si.Hits
			if si.Escalated {
				escalations++
			}
			for _, r := range res.RawReports {
				if perSite[i][r.Loc.String()] {
					recovered++
				}
			}
		}
		recall := 100.0
		if exactLocs > 0 {
			recall = 100 * float64(recovered) / float64(exactLocs)
		}
		fmt.Printf("%-6.2f %8.1f%% %8.1f%% %6d %9d %7.0f%% %10v\n",
			rate, 100*float64(sampledLocs)/float64(totalLocs),
			100*float64(checked)/float64(checked+skipped),
			hits, escalations, recall, time.Since(t0).Round(time.Millisecond))
	}
	fmt.Printf("(%s; sampled reports are a subset of the exact detector's at every\n",
		sweepStats(n*6, time.Since(start)))
	fmt.Printf(" rate and byte-identical at rate 1.0 — tier_test.go asserts both.\n")
	fmt.Printf(" See EXPERIMENTS.md E11 and DESIGN.md \"Sampled tier\".)\n\n")
}

// runPrune is E12: HB-equivalence schedule pruning on the schedule- and
// fault-corpus seed sweeps, then E10's 32-seed recovery measurement rerun
// with the ground-truth sweep pruned. Every pruned aggregate is
// byte-compared against its unpruned twin in-process — the "identical"
// column is measured, not assumed — while the classes, reps and repeat
// columns report the classification. A pruned sweep runs every schedule
// with its detector, as the unpruned one does, and also records and
// fingerprints its trace.
func runPrune(seed int64) {
	corpus := []struct {
		name  string
		site  *loader.Site
		seeds int
	}{
		{"sched-00", sitegen.Generate(sitegen.SchedSpec(0)), 16},
		{"sched-01", sitegen.Generate(sitegen.SchedSpec(1)), 16},
		{"fault-00", sitegen.Generate(sitegen.FaultSpec(0)), 16},
		{"fault-01", sitegen.Generate(sitegen.FaultSpec(1)), 16},
	}
	fmt.Printf("== E12: HB-equivalence schedule pruning ==\n")
	start := time.Now()
	fmt.Printf("%-12s %6s %8s %7s %7s %6s %10s\n",
		"site", "seeds", "classes", "reps", "repeat", "races", "identical")
	runs := 0
	for _, tc := range corpus {
		cfg := webracer.DefaultConfig(seed)
		plain, err := webracer.RunSeedsParallel(tc.site, cfg, tc.seeds,
			webracer.ParallelConfig{Workers: workers})
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			continue
		}
		var stats webracer.ClassStats
		pruned, err := webracer.RunSeedsParallel(tc.site, cfg, tc.seeds,
			webracer.ParallelConfig{Workers: workers, Prune: true, Classes: &stats})
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			continue
		}
		wantB, _ := json.Marshal(plain)
		gotB, _ := json.Marshal(pruned)
		reps := stats.Executions - stats.Pruned
		fmt.Printf("%-12s %6d %8d %7d %6.0f%% %6d %10v\n",
			tc.name, tc.seeds, stats.Distinct, reps,
			100*float64(stats.Pruned)/float64(stats.Executions),
			len(plain.Locations), bytes.Equal(wantB, gotB))
		runs += 2 * tc.seeds
	}

	fmt.Printf("E10's 32-seed recovery measurement, ground-truth sweep pruned:\n")
	fmt.Printf("%-12s %7s %8s %7s %7s %10s\n",
		"site", "recall", "classes", "reps", "repeat", "identical")
	recovery := []struct {
		name string
		site *loader.Site
	}{
		{"fig1", sitegen.Fig1()},
		{"fig4", sitegen.Fig4()},
		{"sched-00", sitegen.Generate(sitegen.SchedSpec(0))},
		{"sched-01", sitegen.Generate(sitegen.SchedSpec(1))},
	}
	const sweepSeeds = 32
	for _, tc := range recovery {
		plain, err := webracer.MeasureRecovery(tc.site, webracer.DefaultConfig(seed), sweepSeeds,
			webracer.ParallelConfig{Workers: workers})
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			continue
		}
		var stats webracer.ClassStats
		pruned, err := webracer.MeasureRecovery(tc.site, webracer.DefaultConfig(seed), sweepSeeds,
			webracer.ParallelConfig{Workers: workers, Prune: true, Classes: &stats})
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			continue
		}
		wantB, _ := json.Marshal(plain)
		gotB, _ := json.Marshal(pruned)
		reps := stats.Executions - stats.Pruned
		fmt.Printf("%-12s %6.0f%% %8d %7d %6.0f%% %10v\n",
			tc.name, 100*pruned.Recall(), stats.Distinct, reps,
			100*float64(stats.Pruned)/float64(stats.Executions), bytes.Equal(wantB, gotB))
		runs += 2 * (sweepSeeds + 1)
	}
	fmt.Printf("(%s; identical=true is the union AND the per-seed counts, byte-compared.\n",
		sweepStats(runs, time.Since(start)))
	fmt.Printf(" See EXPERIMENTS.md E12 and DESIGN.md \"Schedule pruning\".)\n\n")
}

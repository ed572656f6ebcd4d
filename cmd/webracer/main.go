// Command webracer runs the race detector over a web site stored on disk:
// a directory whose files are the site's resources (index.html plus any
// scripts, frames and images it references by relative URL).
//
// Usage:
//
//	webracer [flags] <site-dir>
//
//	-entry index.html   entry page
//	-seed 1             simulation seed
//	-explore            automatic exploration after load (default true)
//	-filters            apply the §5.3 report filters
//	-harm               classify harmful races via the adversarial replay
//	-detector pairwise  pairwise | pairwise-vc | accessset | predictive | sampled
//	-rate R             sampled tier location sampling rate in (0, 1] (default 0.25)
//	-seeds N            run under N seeds and report the union of races
//	-prune              report the canonical trace classes of -seeds sweeps
//	-faults N           also sweep N deterministic fault plans (error-path races)
//	-fault-seed S       base seed for fault-plan derivation (default: -seed)
//	-timeout D          per-run wall-clock budget (tripped runs degrade, not fail)
//	-workers N          parallel workers for -seeds / -faults / -harm sweeps
//	-metrics F          write the run's deterministic telemetry counters as JSON to F
//	-trace F            write a virtual-time Chrome trace (chrome://tracing) to F
//	-pprof P            write P.cpu.pprof and P.heap.pprof profiles
//	-progress           print live sweep progress (done/total, rate, ETA) to stderr
//	-live ADDR          serve live /progress and /metrics JSON on ADDR
//	-v                  also print page errors and console output
//
// Exit status is 1 when races are found (useful in CI for your own site).
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"webracer"
	"webracer/internal/fault"
	"webracer/internal/loader"
	"webracer/internal/obs"
	"webracer/internal/report"
)

func main() { os.Exit(run()) }

// run is main with an exit code, so deferred cleanups (profile stop, live
// server shutdown, progress printer) always execute.
func run() int {
	var (
		entry     = flag.String("entry", "index.html", "entry page within the site directory")
		seed      = flag.Int64("seed", 1, "simulation seed")
		expl      = flag.Bool("explore", true, "simulate user interactions after load (§5.2.2)")
		filters   = flag.Bool("filters", false, "apply the §5.3 report filters")
		harm      = flag.Bool("harm", false, "classify harmful races (adversarial replay)")
		detector  = flag.String("detector", "pairwise", "race detector: pairwise | pairwise-vc | accessset | predictive | sampled")
		rate      = flag.Float64("rate", 0, "sampled tier location sampling rate in (0, 1]; 0 means the default (requires -detector sampled)")
		verbose   = flag.Bool("v", false, "print page errors and console output")
		dotFile   = flag.String("dot", "", "write the happens-before graph in Graphviz DOT form to this file")
		jsonFile  = flag.String("json", "", "write the full session (ops, edges, races) as JSON to this file")
		long      = flag.Bool("long", false, "detailed multi-line report format")
		advise    = flag.Bool("advise", false, "print a suggested remediation for each race")
		exhaust   = flag.Bool("exhaustive", false, "feedback-directed exploration rounds (deeper than §5.2.2)")
		seeds     = flag.Int("seeds", 1, "run under N seeds and report the union of races")
		prune     = flag.Bool("prune", false, "HB-equivalence class report for -seeds sweeps: classify every execution by its canonical trace class (same result bytes)")
		faults    = flag.Int("faults", 0, "also sweep N deterministic fault plans and report error-path races")
		faultSeed = flag.Int64("fault-seed", 0, "base seed for the fault-plan derivation (default: -seed)")
		timeout   = flag.Duration("timeout", 0, "per-run wall-clock budget; tripped runs report partial results as degraded")
		workers   = flag.Int("workers", runtime.NumCPU(), "parallel workers for seed sweeps, fault sweeps and harm replays (results are identical at any count)")
		metricsF  = flag.String("metrics", "", "write the run's deterministic telemetry counters as JSON to this file")
		traceF    = flag.String("trace", "", "write a virtual-time Chrome trace (load in chrome://tracing or Perfetto) to this file")
		pprofP    = flag.String("pprof", "", "write CPU and heap profiles to <prefix>.cpu.pprof and <prefix>.heap.pprof")
		progress  = flag.Bool("progress", false, "print live sweep progress (done/total, rate, ETA) to stderr during -seeds/-faults/-harm sweeps")
		liveAddr  = flag.String("live", "", "serve live /progress and /metrics JSON on this address (e.g. localhost:8077)")
	)
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: webracer [flags] <site-dir>")
		flag.PrintDefaults()
		return 2
	}
	dir := flag.Arg(0)
	site, err := loader.LoadDir(dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "webracer:", err)
		return 2
	}

	if *pprofP != "" {
		finish, err := obs.Profile(*pprofP)
		if err != nil {
			fmt.Fprintln(os.Stderr, "webracer:", err)
			return 2
		}
		defer func() {
			if err := finish(); err != nil {
				fmt.Fprintln(os.Stderr, "webracer:", err)
			}
		}()
	}

	kind, err := webracer.ParseDetector(*detector)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	cfg := webracer.Config{
		Seed:       *seed,
		Explore:    *expl || *exhaust, // exhaustive exploration implies exploration
		Exhaustive: *exhaust,
		Filters:    *filters,
		Detector:   kind,
		SampleRate: *rate,
		EntryURL:   *entry,
		RunTimeout: *timeout,
		Telemetry:  *metricsF != "" || *liveAddr != "",
		TimeTrace:  *traceF != "",
	}
	if err := cfg.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}

	pcfg := webracer.ParallelConfig{Workers: *workers}
	var counters *webracer.Progress
	if *progress || *liveAddr != "" {
		counters = &webracer.Progress{}
		pcfg.Progress = counters
	}

	res := webracer.RunConfig(site, cfg)

	if *liveAddr != "" {
		url, stopLive, err := obs.StartLive(*liveAddr, func() map[string]any {
			s := counters.Snapshot()
			return map[string]any{
				"total": s.Total, "done": s.Done, "inFlight": s.InFlight,
				"perSecond": s.PerSecond, "elapsedMS": s.Elapsed.Milliseconds(),
			}
		}, res.Metrics)
		if err != nil {
			fmt.Fprintln(os.Stderr, "webracer:", err)
			return 2
		}
		defer stopLive()
		fmt.Fprintf(os.Stderr, "live progress at %s/progress and %s/metrics\n", url, url)
	}
	if *progress {
		stop := startProgressPrinter(counters)
		defer stop()
	}

	var harmful *webracer.Harm
	if *harm {
		var err error
		harmful, err = webracer.ClassifyHarmfulParallel(site, cfg, res, pcfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "webracer:", err)
			return 2
		}
	}
	if *seeds > 1 {
		scfg := pcfg
		var classes webracer.ClassStats
		if *prune {
			scfg.Prune = true
			scfg.Classes = &classes
		}
		sweep, err := webracer.RunSeedsParallel(site, cfg, *seeds, scfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "webracer:", err)
			return 2
		}
		stable, flaky := sweep.Stable()
		fmt.Printf("seed sweep (%d seeds): %d location(s) stable, %d schedule-dependent\n",
			*seeds, len(stable), len(flaky))
		for _, loc := range flaky {
			fmt.Printf("  schedule-dependent: %s (%d/%d seeds)\n",
				loc, sweep.Locations[loc], sweep.Seeds)
		}
		if *prune {
			fmt.Printf("  pruning: %d executions in %d trace class(es), %d repeat(s) of an explored class\n",
				classes.Executions, classes.Distinct, classes.Pruned)
		}
	} else if *prune {
		fmt.Fprintln(os.Stderr, "webracer: -prune needs a -seeds sweep (N > 1)")
		return 2
	}

	if *faults > 0 {
		fc := webracer.FaultSweepConfig{Plans: *faults}
		if *faultSeed != 0 {
			base := *faultSeed
			fc.PlanFor = func(i int) fault.Plan { return fault.ForSeed(base, i) }
		}
		sweep, err := webracer.RunFaultSweep(site, cfg, fc, pcfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "webracer:", err)
			return 2
		}
		fmt.Printf("fault sweep (%d plans): %d location(s) total, %d only under faults\n",
			*faults, len(sweep.Locations), len(sweep.NewlyExposed))
		for _, loc := range sweep.NewlyExposed {
			fmt.Printf("  fault-exposed: %s (%d/%d runs)\n", loc, sweep.Locations[loc], len(sweep.Runs))
		}
		for _, d := range sweep.Degraded {
			fmt.Printf("  degraded: %s\n", d)
		}
		for _, s := range sweep.Skipped {
			fmt.Printf("  skipped: %s\n", s)
		}
	}

	fmt.Printf("%s: %d operations, %d race(s)", dir, res.Ops, len(res.Reports))
	if *filters {
		fmt.Printf(" after filtering (%d raw)", len(res.RawReports))
	}
	fmt.Println()
	if si := res.Sampled; si != nil {
		if si.Escalated {
			fmt.Printf("  sampled tier: rate %.2f, %d hit(s) — escalated to %s, reports above are exact\n",
				si.Rate, si.Hits, webracer.EscalationDetector)
		} else {
			fmt.Printf("  sampled tier: rate %.2f, checked %d/%d locations, no hits\n",
				si.Rate, si.Stats.SampledLocations, si.Stats.Locations)
		}
	}
	if p := res.Predictive; p != nil {
		fmt.Printf("  predictive: %d observed, %d predicted beyond the observed schedule (%d/%d witnesses confirmed)\n",
			p.Stats.Observed, p.Stats.Predicted, p.Stats.Confirmed, p.Stats.Predicted)
		predicted := map[string]bool{}
		for _, pr := range p.Reports {
			if pr.Predicted {
				predicted[pr.Loc.String()] = true
			}
		}
		for _, r := range res.Reports {
			if predicted[r.Loc.String()] {
				fmt.Printf("  predicted race needs a reordering: %s\n", r.Loc)
			}
		}
	}
	if *long {
		var hf []bool
		if harmful != nil {
			hf = harmful.Harmful
		}
		if err := report.Format(os.Stdout, res.Reports, res.Browser.Ops, hf); err != nil {
			fmt.Fprintln(os.Stderr, "webracer:", err)
		}
	} else {
		for i, r := range res.Reports {
			tag := ""
			if harmful != nil && harmful.Harmful[i] {
				tag = "  [HARMFUL]"
			}
			fmt.Printf("  %-14s %s%s\n", report.Classify(r).String()+":", r, tag)
			if *advise {
				fmt.Printf("     fix: %s\n", report.Advise(r))
			}
		}
	}
	if *jsonFile != "" {
		f, err := os.Create(*jsonFile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "webracer:", err)
			return 2
		}
		sess := webracer.Export(res, *seed, harmful, false)
		if err := sess.WriteJSON(f); err != nil {
			fmt.Fprintln(os.Stderr, "webracer:", err)
		}
		f.Close()
		fmt.Printf("session written to %s\n", *jsonFile)
	}
	if *dotFile != "" {
		f, err := os.Create(*dotFile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "webracer:", err)
			return 2
		}
		if err := res.Browser.HB.WriteDOT(f, res.Browser.Ops); err != nil {
			fmt.Fprintln(os.Stderr, "webracer:", err)
		}
		f.Close()
		fmt.Printf("happens-before graph written to %s\n", *dotFile)
	}
	if *metricsF != "" {
		if err := writeMetrics(*metricsF, res); err != nil {
			fmt.Fprintln(os.Stderr, "webracer:", err)
			return 2
		}
		fmt.Printf("metrics written to %s\n", *metricsF)
	}
	if *traceF != "" {
		if err := writeTrace(*traceF, res); err != nil {
			fmt.Fprintln(os.Stderr, "webracer:", err)
			return 2
		}
		fmt.Printf("virtual-time trace written to %s\n", *traceF)
	}
	if harmful != nil {
		for _, ev := range harmful.Evidence {
			fmt.Println("  evidence:", ev)
		}
	}
	if *verbose {
		for _, e := range res.Errors {
			fmt.Println("  page error:", e)
		}
		for _, line := range res.Browser.Console {
			fmt.Println("  console:", line)
		}
		st := res.Browser.Stats()
		fmt.Printf("  stats: %d ops, %d hb-edges, %d tasks, %.1fms virtual, %d window(s), %d fetch(es)\n",
			st.Ops, st.Edges, st.TasksRun, st.VirtualTime, st.Windows, st.Fetches)
	}
	if len(res.Reports) > 0 {
		return 1
	}
	return 0
}

func writeMetrics(path string, res *webracer.Result) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return res.Metrics.WriteJSON(f)
}

func writeTrace(path string, res *webracer.Result) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return res.Trace.WriteJSON(f)
}

// startProgressPrinter prints sweep progress (fed by the shared
// pool.Counters; each sweep re-arms them with its own total) to stderr
// twice a second. The returned stop func ends the printer and terminates
// the status line.
func startProgressPrinter(c *webracer.Progress) (stop func()) {
	done := make(chan struct{})
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		tick := time.NewTicker(500 * time.Millisecond)
		defer tick.Stop()
		printed := false
		for {
			select {
			case <-done:
				if printed {
					fmt.Fprintln(os.Stderr)
				}
				return
			case <-tick.C:
				s := c.Snapshot()
				if s.Total == 0 {
					continue
				}
				eta := "?"
				if s.PerSecond > 0 && s.Done <= s.Total {
					left := float64(s.Total-s.Done) / s.PerSecond
					eta = (time.Duration(left * float64(time.Second))).Truncate(100 * time.Millisecond).String()
				}
				fmt.Fprintf(os.Stderr, "\rsweep: %d/%d done, %d in flight, %.1f runs/s, eta %s   ",
					s.Done, s.Total, s.InFlight, s.PerSecond, eta)
				printed = true
			}
		}
	}()
	return func() { close(done); <-finished }
}

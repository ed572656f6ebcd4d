package webracer

import (
	"context"
	"fmt"

	"webracer/internal/js"
	"webracer/internal/loader"
	"webracer/internal/pool"
)

// ParallelConfig tunes the parallel sweep engine. Every sweep unit — one
// (site, seed) simulation — is a self-contained deterministic
// computation: each RunConfig builds its own browser, loader, interpreter and
// seeded RNGs and never touches package-level mutable state, so sweeps
// shard over workers without changing any result. The units of one sweep
// share only its parse memo (see withParseMemo), whose ASTs are
// read-only. The engine guarantees
// results are aggregated in input order regardless of completion order;
// a sweep at Workers == 8 is byte-for-byte identical to Workers == 1
// (parallel_test.go proves this on exported sessions).
type ParallelConfig struct {
	// Workers is the number of concurrent simulations; values < 1 mean
	// runtime.NumCPU(). Workers == 1 runs inline on the calling
	// goroutine — the exact serial path.
	Workers int
	// Ctx cancels a sweep early (nil means context.Background());
	// the sweep returns what was aggregated up to the cancellation
	// point together with the context error.
	Ctx context.Context
	// Progress, when non-nil, is updated live with per-worker
	// completion counters and throughput (see Progress.Snapshot).
	Progress *Progress
	// Prune adds an HB-equivalence class report to the seed and
	// delay-one sweeps: every unit runs as in the unpruned sweep, with
	// its own detector pass and its access trace recorded, and each
	// execution is classified by its trace-class fingerprint
	// (per-location chain digests of the accesses and their HB
	// orientations, internal/canon). The aggregate is the unpruned
	// sweep's at any worker count and for every detector. See DESIGN.md
	// "Schedule pruning".
	Prune bool
	// Classes, when non-nil with Prune set, receives the sweep's
	// class summary (executions, distinct classes, executions whose
	// class was already explored, steering decisions) — the same
	// numbers the explore.classes.* counters export.
	Classes *ClassStats
}

// Progress exposes live per-worker sweep counters; see pool.Counters.
type Progress = pool.Counters

func (p ParallelConfig) opts() pool.Options {
	return pool.Options{Workers: p.Workers, Ctx: p.Ctx, Counters: p.Progress}
}

// withParseMemo gives cfg a parse memo (see js.Programs) unless it already
// carries one. Every multi-run driver calls it at entry, so all runs of
// one sweep, on every worker, parse each distinct script once; a nested
// driver (MeasureRecovery's seed sweep, say) keeps the outer sweep's memo.
// The memo is dropped with the sweep's Config, never kept across sweeps.
func withParseMemo(cfg Config) Config {
	if cfg.Browser.Programs == nil {
		cfg.Browser.Programs = js.NewPrograms()
	}
	return cfg
}

// RunCorpusParallel runs the detector over n synthetic sites (see
// sitegen), sharded over p.Workers, and returns one Result per site:
// site i runs with seed cfg.Seed + i*101 and lands at index i, so the
// output is identical at any worker count. gen must be safe for
// concurrent calls (sitegen.Generate is: it is a pure function of its
// spec).
func RunCorpusParallel(n int, gen func(i int) *loader.Site, cfg Config, p ParallelConfig) ([]*Result, error) {
	return pool.Map(p.opts(), n, func(i int) *Result {
		c := cfg
		c.Seed = cfg.Seed + int64(i)*101
		return RunConfig(gen(i), c)
	})
}

// RunSeedsParallel performs a seed sweep over the site: run i uses seed
// cfg.Seed + i*7919, sharded over p.Workers and folded in seed order, so
// the aggregate is identical at any worker count. With p.Prune set, the
// sweep also reports its HB-equivalence classes (see
// ParallelConfig.Prune) and the aggregate is unchanged.
func RunSeedsParallel(site *loader.Site, cfg Config, n int, p ParallelConfig) (*SeedSweep, error) {
	seedOf := func(i int) int64 { return cfg.Seed + int64(i)*7919 }
	sweep := &SeedSweep{Locations: map[string]int{}, Seeds: n}
	var err error
	sweep.Degraded, err = runSweep(sweepPlan{
		site: site, cfg: cfg, n: n,
		unit:  func(i int, c *Config) { c.Seed = seedOf(i) },
		label: func(i int) string { return fmt.Sprintf("seed %d", seedOf(i)) },
	}, p, func(i int, run sweepRun) {
		sweep.PerSeed = append(sweep.PerSeed, len(run.res.Reports))
		sweep.Ops += run.res.Ops
		for _, key := range run.locs {
			sweep.Locations[key]++
		}
	})
	return sweep, err
}

// ExploreSchedulesParallel runs the delay-one sweep: the baseline, then
// one run per resource (URLs sorted) with that resource made
// pathologically slow, sharded over p.Workers and folded in that order,
// so the sweep is identical at any worker count. The detector already
// reasons over happens-before rather than observed order, so most races
// appear in the baseline; perturbations add races in code that only
// *executes* under certain orderings (retry branches, readiness checks,
// handlers attached by late code). With p.Prune set, the sweep also
// reports its trace classes and counts which perturbations steering
// would prioritize (see ParallelConfig.Prune).
func ExploreSchedulesParallel(site *loader.Site, cfg Config, p ParallelConfig) (*ScheduleSweep, error) {
	// Unit 0 is the baseline; unit i > 0 slows urls[i].
	urls := append([]string{""}, resourceURLs(site)...)
	label := func(i int) string {
		if i == 0 {
			return "baseline"
		}
		return "slow:" + urls[i]
	}
	sweep := &ScheduleSweep{ByLocation: map[string][]string{}}
	seenLoc := map[string]bool{}
	var baseline []string
	var err error
	sweep.Degraded, err = runSweep(sweepPlan{
		site: site, cfg: cfg, n: len(urls),
		unit: func(i int, c *Config) {
			if i > 0 {
				c.Seed++ // keep jitter stable; the override is the perturbation
				c.Browser.Latency = slowOne(c.Browser.Latency, urls[i])
			}
		},
		label: label,
		steer: func(i int) string { return urls[i] },
	}, p, func(i int, run sweepRun) {
		sweep.Runs++
		by := "" // ByLocation names the baseline ""
		if i == 0 {
			sweep.Baseline, baseline = run.res, run.locs
		} else {
			by = label(i)
		}
		for j, key := range run.keys {
			sweep.ByLocation[key] = append(sweep.ByLocation[key], by)
			if !seenLoc[key] {
				seenLoc[key] = true
				sweep.Reports = append(sweep.Reports, run.res.Reports[j])
			}
		}
	})
	sweep.NewlyExposed = newlyExposed(sweep.ByLocation, baseline)
	return sweep, err
}

// slowOne returns lat with url's latency overridden to a pathological
// 2000ms, preserving other per-URL overrides.
func slowOne(lat loader.Latency, url string) loader.Latency {
	if lat.Base == 0 && lat.PerURL == nil {
		lat = loader.DefaultLatency()
	}
	per := map[string]float64{url: 2_000}
	for k, v := range lat.PerURL {
		if k != url {
			per[k] = v
		}
	}
	lat.PerURL = per
	return lat
}

// ClassifyHarmfulParallel re-runs site under adversarial schedules
// (cfg.HarmRuns of them) and marks which of res.Reports are harmful: a
// race is harmful if any adversarial run exhibits its failure behaviour.
// The replays are independent simulations sharded over p.Workers;
// judging folds in replay order, so the first-evidence-wins semantics
// (and therefore Harmful, Counts and Evidence) are identical at any
// worker count.
func ClassifyHarmfulParallel(site *loader.Site, cfg Config, res *Result, p ParallelConfig) (*Harm, error) {
	cfg = withParseMemo(cfg)
	runs := cfg.HarmRuns
	if runs <= 0 {
		runs = 1
	}
	h := &Harm{Harmful: make([]bool, len(res.Reports))}
	err := pool.Each(p.opts(), runs,
		func(n int) *adversary {
			c := cfg
			c.Seed = cfg.Seed + int64(n)*104729
			return runAdversarial(site, c)
		},
		func(n int, adv *adversary) error {
			h.judge(adv, res)
			return nil
		})
	return h, err
}

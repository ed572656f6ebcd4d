package webracer

import (
	"slices"
	"sort"

	"webracer/internal/explore"
	"webracer/internal/loader"
	"webracer/internal/pool"
)

// sweepPlan enumerates the units of one multi-run sweep over a site.
// Unit i runs a copy of cfg that unit(i, &c) has derived; label(i) names
// the unit in Degraded and is called only for a degraded unit. A non-nil
// steer gives the URL a delay-one unit slows ("" for none): under
// pruning, the engine then makes each unit's steering decision against
// the classes explored before it and indexes every representative's
// conflicting pairs.
type sweepPlan struct {
	site  *loader.Site
	cfg   Config
	n     int
	unit  func(i int, c *Config)
	label func(i int) string
	steer func(i int) string
}

// sweepRun is one unit's outcome as the engine hands it to a fold.
type sweepRun struct {
	// res is the unit's run.
	res *Result
	// keys[j] is res.Reports[j].Loc.String(); locs are the distinct
	// keys in first-seen order.
	keys, locs []string
}

// classified is a unit's run with its trace-class fingerprint, computed
// worker-side so the in-order fold stays light ("" when unpruned or
// interrupted).
type classified struct {
	res *Result
	fp  string
}

// runSweep runs plan's units over p.Workers (Workers == 1 is the serial
// path) with one parse memo, and folds each unit's outcome in unit order,
// so the fold sees the same sequence at any worker count. With p.Prune
// set, every unit also records its access trace, the fold classifies each
// run by its canonical trace class, and p.Classes receives the class
// summary; the runs and their folds are those of the unpruned sweep. An
// interrupted run joins no class. runSweep returns the degraded units as
// "label: reason" in unit order, and pool.Each's error: the context
// error and any recovered panics, whose units were not folded.
func runSweep(plan sweepPlan, p ParallelConfig, fold func(i int, run sweepRun)) ([]string, error) {
	cfg := withParseMemo(plan.cfg)
	var cs *explore.ClassSet
	if p.Prune {
		cfg.RecordTrace = true // the fingerprint reads the access trace
		cs = explore.NewClassSet()
	}
	var degraded []string
	err := pool.Each(p.opts(), plan.n,
		func(i int) classified {
			c := cfg
			plan.unit(i, &c)
			res := RunConfig(plan.site, c)
			if !p.Prune || res.Interrupted != "" {
				return classified{res: res} // an interrupted run joins no class
			}
			return classified{res, fingerprintOf(res)}
		},
		func(i int, u classified) error {
			if u.res.Interrupted != "" {
				degraded = append(degraded, plan.label(i)+": "+u.res.Interrupted)
			}
			if p.Prune {
				// Steer against the classes explored before this unit:
				// would its delayed URL flip a pair ordered only one way
				// so far? A delay-one class's first member then indexes
				// its conflicting pairs.
				if plan.steer != nil {
					if url := plan.steer(i); url != "" && cs.OneWay(func(key string) bool {
						return containsURL(key, url)
					}) {
						cs.NoteSteered()
					}
				}
				if u.res.Interrupted != "" {
					cs.Degraded()
				} else if _, first := cs.Observe(u.fp); first && plan.steer != nil {
					notePairs(cs, u.res)
				}
			}
			fold(i, newSweepRun(u.res))
			return nil
		})
	if p.Prune && p.Classes != nil {
		*p.Classes = cs.Stats()
	}
	return degraded, err
}

// newSweepRun computes the location keys of res's reports. keys and
// locs share one slice unless a key repeats, which the shipped detectors
// avoid: they report at most one race per location.
func newSweepRun(res *Result) sweepRun {
	r := sweepRun{res: res}
	if len(res.Reports) == 0 {
		return r
	}
	r.keys = make([]string, len(res.Reports))
	for j := range res.Reports {
		r.keys[j] = res.Reports[j].Loc.String()
	}
	r.locs = r.keys
	seen := make(map[string]bool, len(r.keys))
	for j, key := range r.keys {
		if !seen[key] {
			seen[key] = true
			continue
		}
		// keys[:j] are distinct; deduplicate the rest onto a copy.
		r.locs = slices.Clone(r.keys[:j])
		for _, k := range r.keys[j+1:] {
			if !seen[k] {
				seen[k] = true
				r.locs = append(r.locs, k)
			}
		}
		break
	}
	return r
}

// newlyExposed returns the locations absent from baseline, sorted.
func newlyExposed[V any](locations map[string]V, baseline []string) []string {
	var out []string
	for loc := range locations {
		if !slices.Contains(baseline, loc) {
			out = append(out, loc)
		}
	}
	sort.Strings(out)
	return out
}

package webracer

import (
	"fmt"
	"slices"
	"sort"

	"webracer/internal/explore"
	"webracer/internal/loader"
	"webracer/internal/pool"
	"webracer/internal/race"
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
	// res is the unit's run. A pruned repeat's is its cheap pass, whose
	// own report fields are empty: its verdict is reports.
	res *Result
	// reports are the run's reports (its class's, for a pruned repeat).
	reports []race.Report
	// keys[j] is reports[j].Loc.String(); locs are the distinct keys in
	// first-seen order.
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
// set, every unit runs cheaply (see cheapConfig), only the first member
// of each canonical trace class pays the detector pass, repeats reuse
// its verdict, and p.Classes receives the class summary. An interrupted
// run is always analyzed and never reused. runSweep returns the degraded
// units as "label: reason" in unit order, and pool.Each's error: the
// context error and any recovered panics, whose units were not folded.
func runSweep(plan sweepPlan, p ParallelConfig, fold func(i int, run sweepRun)) ([]string, error) {
	cfg := withParseMemo(plan.cfg)
	base := cfg // what each unit's config is derived from
	var cs *explore.ClassSet
	var classes map[string]sweepRun // a class's verdict, without its representative's run
	if p.Prune {
		switch cfg.Detector {
		case DetectorPredictive, DetectorSampled:
			return nil, fmt.Errorf("webracer: %w; got %q", ErrPruneDetector, cfg.Detector)
		}
		base = cheapConfig(cfg)
		cs = explore.NewClassSet()
		classes = map[string]sweepRun{}
	}
	var degraded []string
	err := pool.Each(p.opts(), plan.n,
		func(i int) classified {
			c := base
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
			if !p.Prune {
				fold(i, newSweepRun(u.res))
				return nil
			}
			// Steer against the classes explored before this unit: would
			// its delayed URL flip a pair ordered only one way so far?
			if plan.steer != nil {
				if url := plan.steer(i); url != "" && cs.OneWay(func(key string) bool {
					return containsURL(key, url)
				}) {
					cs.NoteSteered()
				}
			}
			if u.res.Interrupted != "" {
				cs.Degraded()
			} else if _, first := cs.Observe(u.fp); !first {
				cls := classes[u.fp]
				cls.res = u.res
				fold(i, cls)
				return nil
			}
			analyzeClass(cfg, u.res)
			r := newSweepRun(u.res)
			if u.res.Interrupted == "" {
				cls := r
				cls.res = nil
				classes[u.fp] = cls
				if plan.steer != nil {
					notePairs(cs, u.res)
				}
			}
			fold(i, r)
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
	r := sweepRun{res: res, reports: res.Reports}
	if len(r.reports) == 0 {
		return r
	}
	r.keys = make([]string, len(r.reports))
	for j := range r.reports {
		r.keys[j] = r.reports[j].Loc.String()
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

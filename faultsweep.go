package webracer

import (
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"sort"

	"webracer/internal/fault"
	"webracer/internal/loader"
	"webracer/internal/pool"
)

// FaultRun is the outcome of one unit of a fault sweep: the fault-free
// baseline (Plan == "baseline") or one fault plan.
type FaultRun struct {
	// Plan is the plan's stable label.
	Plan string `json:"plan"`
	// Races are the racing locations reported, sorted.
	Races []string `json:"races,omitempty"`
	// Faults is the number of injections that actually fired.
	Faults int `json:"faults"`
	// Errors is the number of page errors (crashes, failed fetches).
	Errors int `json:"errors"`
	// Interrupted names why the run stopped early, if it did.
	Interrupted string `json:"interrupted,omitempty"`
}

// FaultSweep aggregates detection across fault plans: the same (site,
// seed) is run fault-free and under n derived plans, and the union of
// race locations is reported with per-plan attribution. Races in
// NewlyExposed need an injected failure to reproduce — the error-path
// races no timing-only schedule can reach. FaultSweep marshals
// deterministically (runs are in plan order, locations sorted), so
// sweeps can be golden-tested and byte-compared across worker counts.
type FaultSweep struct {
	Site string `json:"site"`
	Seed int64  `json:"seed"`
	// Runs holds the baseline (index 0) and one entry per plan that
	// produced a result, in plan order.
	Runs []FaultRun `json:"runs"`
	// Locations maps each racing location to the number of runs that
	// reported it.
	Locations map[string]int `json:"locations"`
	// NewlyExposed are locations reported under some fault plan but not
	// by the baseline, sorted.
	NewlyExposed []string `json:"newlyExposed,omitempty"`
	// Degraded lists runs that completed partially (wall-clock budget,
	// cancellation, safety bounds) with their reason. Their partial
	// results are still folded into Runs.
	Degraded []string `json:"degraded,omitempty"`
	// Skipped lists runs that produced no result at all (a recovered
	// worker panic); the rest of the sweep is unaffected.
	Skipped []string `json:"skipped,omitempty"`
}

// FaultSweepConfig tunes RunFaultSweep.
type FaultSweepConfig struct {
	// Plans is the number of fault plans to run (the baseline always
	// runs in addition); values < 1 mean 6 — one full rotation through
	// the fault shapes of fault.ForSeed.
	Plans int
	// PlanFor overrides the plan derivation; nil means
	// fault.ForSeed(cfg.Seed, i). The sweep protects the entry page with
	// a KindNone override unless the plan already pins it.
	PlanFor func(i int) fault.Plan
	// OnRun, when non-nil, is called on the worker goroutine before unit
	// i executes (0 is the baseline; plan i runs as unit i+1) — an
	// observability hook for progress logging.
	OnRun func(i int, plan fault.Plan)
}

func (fc FaultSweepConfig) plans() int {
	if fc.Plans < 1 {
		return 6
	}
	return fc.Plans
}

// RunFaultSweep runs the site fault-free and under fc.Plans derived fault
// plans, all at the same seed — the schedule is held fixed while the
// network's failure behaviour varies, so any new race is attributable to
// the injected faults alone. The sweep is deterministic: the same (site,
// seed, plans) produces the same FaultSweep at any worker count. It is
// also robust: a worker panic skips that one run (Skipped), a run that
// trips cfg.RunTimeout or a safety bound folds its partial results in and
// is listed in Degraded, and the sweep itself still completes without
// error in both cases.
func RunFaultSweep(site *loader.Site, cfg Config, fc FaultSweepConfig, p ParallelConfig) (*FaultSweep, error) {
	n := fc.plans()
	planFor := fc.PlanFor
	if planFor == nil {
		planFor = func(i int) fault.Plan { return fault.ForSeed(cfg.Seed, i) }
	}
	entry := entryOf(cfg)
	planAt := func(unit int) fault.Plan {
		if unit == 0 {
			return fault.Plan{}
		}
		return protectEntry(planFor(unit-1), entry)
	}
	labelAt := func(unit int) string {
		if unit == 0 {
			return "baseline"
		}
		return planAt(unit).Label()
	}

	sweep := &FaultSweep{Site: site.Name, Seed: cfg.Seed, Locations: map[string]int{}}
	var baseline []string
	p.Prune = false // fault sweeps run every detector pass
	var err error
	sweep.Degraded, err = runSweep(sweepPlan{
		site: site, cfg: cfg, n: 1 + n,
		unit: func(unit int, c *Config) {
			plan := planAt(unit)
			if unit > 0 {
				c.Fault = &plan
			}
			if fc.OnRun != nil {
				fc.OnRun(unit, plan)
			}
		},
		label: labelAt,
	}, p, func(unit int, run sweepRun) {
		races := slices.Clone(run.locs)
		sort.Strings(races)
		sweep.Runs = append(sweep.Runs, FaultRun{
			Plan:        labelAt(unit),
			Races:       races,
			Faults:      len(run.res.FaultEvents),
			Errors:      len(run.res.Errors),
			Interrupted: run.res.Interrupted,
		})
		for _, key := range races {
			sweep.Locations[key]++
		}
		if unit == 0 {
			baseline = races
		}
	})

	// A panicked run delivered nothing to the sink; record it as skipped
	// and absorb the panic — one bad run must not fail the sweep.
	for _, pe := range pool.Panics(err) {
		sweep.Skipped = append(sweep.Skipped,
			fmt.Sprintf("%s: panic: %v", labelAt(pe.Index), pe.Value))
	}
	sort.Strings(sweep.Skipped)

	sweep.NewlyExposed = newlyExposed(sweep.Locations, baseline)

	if ctx := p.Ctx; ctx != nil && ctx.Err() != nil {
		return sweep, ctx.Err()
	}
	return sweep, nil
}

// WriteJSON writes the sweep as indented JSON. The encoding is
// deterministic (runs in plan order, string-keyed maps in sorted key
// order), so sweeps can be byte-compared and golden-tested.
func (s *FaultSweep) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// protectEntry pins the entry page fault-free unless the plan already
// decides it: a dropped entry page yields an empty run, which explores
// nothing.
func protectEntry(p fault.Plan, entry string) fault.Plan {
	if _, ok := p.PerURL[entry]; ok {
		return p
	}
	per := map[string]fault.Kind{entry: fault.KindNone}
	for k, v := range p.PerURL {
		per[k] = v
	}
	p.PerURL = per
	return p
}

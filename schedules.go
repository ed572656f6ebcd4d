package webracer

import (
	"webracer/internal/race"
	"webracer/internal/report"
)

// ScheduleSweep is the result of systematic schedule exploration: the site
// is re-run once per resource with that single resource made pathologically
// slow (the "delay-one" strategy testers use to provoke load races), plus
// one baseline run. Races are aggregated by location across runs.
type ScheduleSweep struct {
	// Baseline is the unperturbed run's result.
	Baseline *Result
	// Runs counts the executions performed (1 + number of resources).
	Runs int
	// ByLocation maps race-location strings to the perturbations that
	// exposed them ("" for the baseline).
	ByLocation map[string][]string
	// NewlyExposed lists locations found only under some perturbation.
	NewlyExposed []string
	// Reports holds one representative report per location, in first-seen
	// order across runs.
	Reports []race.Report
	// Degraded lists runs that completed partially (budget, cancellation,
	// safety bounds) as "label: reason" in run order, the baseline
	// labeled "baseline" and a perturbation "slow:<url>". Their partial
	// results are still folded in.
	Degraded []string
}

// Counts tallies the sweep's union of races by type.
func (s *ScheduleSweep) Counts() report.Counts { return report.Count(s.Reports) }

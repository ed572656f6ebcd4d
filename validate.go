package webracer

import (
	"fmt"

	"webracer/internal/loader"
	"webracer/internal/mem"
	"webracer/internal/race"
)

// Validation is the outcome of re-running a site under perturbed schedules
// to observe a reported race's two accesses in both orders. A race whose
// order flips across schedules is demonstrably schedule-dependent — the
// strongest evidence a happens-before report can get short of a failure.
// A race that never flips within the budget is *not* refuted (the detector
// reasons over happens-before, not observed order; Fig. 2's user write
// always lands after the page's write in automatic exploration, yet the
// race is real), so Flipped=false only means "no schedule in the sample
// reversed it".
type Validation struct {
	// PriorFirst and CurrentFirst count the runs in which the respective
	// access of the original report was observed first.
	PriorFirst   int
	CurrentFirst int
	// Missing counts runs in which one of the accesses did not occur
	// (code paths need not execute under every schedule).
	Missing int
	// Runs is the number of schedules tried.
	Runs int
}

// Flipped reports whether both orders were observed.
func (v *Validation) Flipped() bool { return v.PriorFirst > 0 && v.CurrentFirst > 0 }

// String summarizes the validation in one line.
func (v *Validation) String() string {
	return fmt.Sprintf("%d/%d prior-first, %d/%d current-first, %d missing (flipped=%v)",
		v.PriorFirst, v.Runs, v.CurrentFirst, v.Runs, v.Missing, v.Flipped())
}

// accessKey identifies one racing access across runs. Serial-bearing parts
// of the location are unstable between runs, so the key uses the stable
// parts: location kind and name, access kind, context, and the
// human-readable description (which carries element ids and variable
// names).
type accessKey struct {
	accKind mem.AccessKind
	locKind mem.Kind
	locName string
	ctx     mem.Context
	desc    string
}

func keyOf(a race.Access) accessKey {
	return accessKey{
		accKind: a.Kind,
		locKind: a.Loc.Kind,
		locName: a.Loc.Name,
		ctx:     a.Ctx,
		desc:    a.Desc,
	}
}

// ValidateRace re-runs the site under `runs` different seeds and records in
// which order the report's two accesses occur. cfg should be the
// configuration that produced the report.
func ValidateRace(site *loader.Site, cfg Config, r race.Report, runs int) *Validation {
	cfg = withParseMemo(cfg)
	v := &Validation{Runs: runs}
	k1, k2 := keyOf(r.Prior), keyOf(r.Current)
	for i := 0; i < runs; i++ {
		c := cfg
		c.Seed = cfg.Seed + int64(i)*7919 + 13
		c.RecordTrace = true
		res := RunConfig(site, c)
		trace := res.Browser.Trace()
		i1 := findAccess(trace, k1)
		i2 := findAccess(trace, k2)
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

func findAccess(trace []race.Access, k accessKey) int {
	for i, a := range trace {
		if keyOf(a) == k {
			return i
		}
	}
	return -1
}

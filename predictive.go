package webracer

import (
	"sort"

	"webracer/internal/loader"
)

// Recovery quantifies what one predictive pass recovers of a K-seed
// schedule sweep's findings — experiment E10 and the sweep-recovery
// battery's unit of comparison. The sweep (the paper's shipped pairwise
// detector, re-run under K seeds) is ground truth for schedule-dependent
// races the service would otherwise chase with repeated execution; the
// predictive pass is a single instrumented run at the baseline seed.
// All fields are integers and sorted string slices, so the struct marshals
// byte-identically across worker counts and golden-tests like a session.
type Recovery struct {
	// Site names the swept site; Seeds is the sweep width K.
	Site  string `json:"site"`
	Seeds int    `json:"seeds"`
	// SweepLocations is the union of racing locations across all K runs;
	// FlakyLocations the subset some seeds miss (schedule-dependent
	// reports).
	SweepLocations []string `json:"sweepLocations"`
	FlakyLocations []string `json:"flakyLocations"`
	// PredictiveLocations is what the single predictive pass reports.
	// Recovered = sweep ∩ predictive; Missed = sweep − predictive (races
	// whose code never executed in the recorded run); PredictedOnly =
	// predictive − sweep (races beyond every swept schedule, certified by
	// witness reorderings).
	PredictiveLocations []string `json:"predictiveLocations"`
	Recovered           []string `json:"recovered"`
	Missed              []string `json:"missed"`
	PredictedOnly       []string `json:"predictedOnly"`
	// RecallNum/RecallDen express recall |recovered| / |sweep| as a
	// rational, keeping the fixture float-free.
	RecallNum int `json:"recallNum"`
	RecallDen int `json:"recallDen"`
	// Predicted, Confirmed and WitnessEvents mirror the pass's
	// race.PredictiveStats; soundness means Predicted == Confirmed.
	Predicted     int `json:"predicted"`
	Confirmed     int `json:"confirmed"`
	WitnessEvents int `json:"witnessEvents"`
}

// Recall returns the recovery fraction (1 when the sweep found nothing).
func (r *Recovery) Recall() float64 {
	if r.RecallDen == 0 {
		return 1
	}
	return float64(r.RecallNum) / float64(r.RecallDen)
}

// MeasureRecovery runs the K-seed ground-truth sweep (cfg's detector,
// normally the shipped pairwise) and one predictive pass at cfg.Seed, and
// folds both into a Recovery. The sweep shards over p.Workers; the result
// is identical at any worker count.
func MeasureRecovery(site *loader.Site, cfg Config, seeds int, p ParallelConfig) (*Recovery, error) {
	cfg = withParseMemo(cfg)
	sweep, err := RunSeedsParallel(site, cfg, seeds, p)
	if err != nil {
		return nil, err
	}
	pcfg := cfg
	pcfg.Detector = DetectorPredictive
	return recoveryOf(site, seeds, sweep, RunConfig(site, pcfg)), nil
}

// recoveryOf folds a seeds-run ground-truth sweep and one predictive
// run into a Recovery.
func recoveryOf(site *loader.Site, seeds int, sweep *SeedSweep, res *Result) *Recovery {
	rec := &Recovery{Site: site.Name, Seeds: seeds}
	for loc, hits := range sweep.Locations {
		rec.SweepLocations = append(rec.SweepLocations, loc)
		if hits < seeds {
			rec.FlakyLocations = append(rec.FlakyLocations, loc)
		}
	}
	sort.Strings(rec.SweepLocations)
	sort.Strings(rec.FlakyLocations)

	pred := map[string]bool{}
	for _, r := range res.Reports {
		key := r.Loc.String()
		if !pred[key] {
			pred[key] = true
			rec.PredictiveLocations = append(rec.PredictiveLocations, key)
		}
	}
	sort.Strings(rec.PredictiveLocations)

	swept := map[string]bool{}
	for _, loc := range rec.SweepLocations {
		swept[loc] = true
		if pred[loc] {
			rec.Recovered = append(rec.Recovered, loc)
		} else {
			rec.Missed = append(rec.Missed, loc)
		}
	}
	for _, loc := range rec.PredictiveLocations {
		if !swept[loc] {
			rec.PredictedOnly = append(rec.PredictedOnly, loc)
		}
	}
	rec.RecallNum, rec.RecallDen = len(rec.Recovered), len(rec.SweepLocations)
	st := res.Predictive.Stats
	rec.Predicted, rec.Confirmed, rec.WitnessEvents = st.Predicted, st.Confirmed, st.WitnessEvents
	return rec
}

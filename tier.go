package webracer

// Detection tiering: the sampled fast tier and its escalation to the
// exact detectors, plus the configuration validation that keeps the tier
// knobs coherent. See DESIGN.md "Sampled tier" for the full contract.

import (
	"errors"
	"fmt"
	"math"

	"webracer/internal/hb"
	"webracer/internal/loader"
	"webracer/internal/obs"
	"webracer/internal/race"
)

// DefaultSampleRate is the sampling rate DetectorSampled applies when
// Config.SampleRate is zero: a quarter of the locations get full pairwise
// checks, the rest exit in O(1). Chosen so the corpus's cheap-tier cost
// sits well under the exact detectors while escalation still fires on
// every golden racy site (see EXPERIMENTS.md E11 for the measured
// rate/recall/cost trade).
const DefaultSampleRate = 0.25

// Typed validation errors; test with errors.Is. Validate wraps them with
// the offending values.
var (
	// ErrInvalidSampleRate: Config.SampleRate outside [0, 1], or set
	// alongside a detector that does not sample.
	ErrInvalidSampleRate = errors.New("invalid sample rate")
	// ErrSampledExhaustive: DetectorSampled combined with Exhaustive
	// exploration. Exhaustive mode exists to maximize coverage; pairing
	// it with a deliberately incomplete cheap tier contradicts that, and
	// an escalation would pay the exhaustive fixpoint twice. Pick one.
	ErrSampledExhaustive = errors.New("sampled detector cannot be combined with exhaustive exploration")
)

// Validate checks the configuration's cross-field invariants. Config is
// an open struct and the service deserializes it from requests; API
// boundaries call Validate and map the typed errors to 400s/exit codes,
// while RunConfig panics on an invalid Config (programmer error).
func (c Config) Validate() error {
	if c.SampleRate < 0 || c.SampleRate > 1 || math.IsNaN(c.SampleRate) {
		return fmt.Errorf("webracer: %w: %v (want a rate in (0, 1], or 0 for the default %v)",
			ErrInvalidSampleRate, c.SampleRate, DefaultSampleRate)
	}
	if c.SampleRate != 0 && c.Detector != DetectorSampled {
		return fmt.Errorf("webracer: %w: rate %v set but detector is %s, which is exact and does not sample",
			ErrInvalidSampleRate, c.SampleRate, c.Detector)
	}
	if c.Detector == DetectorSampled && c.Exhaustive {
		return fmt.Errorf("webracer: %w", ErrSampledExhaustive)
	}
	return nil
}

// effectiveSampleRate resolves the zero-means-default rate.
func (c Config) effectiveSampleRate() float64 {
	if c.SampleRate == 0 {
		return DefaultSampleRate
	}
	return c.SampleRate
}

// SampledInfo is the fast tier's accounting on a DetectorSampled run
// (Result.Sampled).
type SampledInfo struct {
	// Rate is the effective sampling rate the tier ran at.
	Rate float64 `json:"rate"`
	// Hits is the number of races the cheap tier itself found; any
	// non-zero value triggers escalation. Hits are real races (a subset
	// of the exact detector's reports), never heuristic flags.
	Hits int `json:"hits"`
	// Escalated reports that the run's recorded accesses were replayed
	// under the exact detector (EscalationDetector) and the Result holds
	// that detector's reports.
	Escalated bool `json:"escalated,omitempty"`
	// Stats is the tier's work split: checked vs skipped accesses, epoch
	// vs vector resolution.
	Stats race.SampledStats `json:"stats"`
}

// EscalationDetector is the exact tier a sampled hit escalates to: the
// pairwise algorithm over the live vector-clock oracle, the fastest exact
// configuration (E4). The escalation replays the cheap pass's accesses
// and happens-before mutations under it instead of running the page
// again. Rate-1 byte-identity is stated against it, and webracerd
// cross-populates its cache under this detector's key when a sampled job
// escalates.
const EscalationDetector = DetectorPairwiseVC

// runSampled executes the sampled tier: one browser run under the cheap
// detector, recording its accesses and every mutation of its live
// vector-clock oracle. If the cheap pass hit, the recording is replayed
// into a fresh oracle under the exact detector, in the order the run
// produced it, so the exact detector answers what it would have answered
// running live; the Result is then the exact detector's view of the same
// session, annotated with the tier's accounting.
//
// The subset/identity contract falls out directly: a run with no hits
// reports nothing (trivially a subset of the exact reports), and a run
// with hits reports exactly the exact detector's output. At rate 1 the
// cheap tier's hit predicate equals "the exact detector reports ≥ 1
// race", so the final output is byte-identical to the exact detector's
// on every site. Determinism is inherited: the run is a pure function of
// (site bytes, seed, config) and the replay a pure function of the run,
// so the tier is too — which is what lets webracerd cache sampled
// responses content-addressed. There is one run, so one
// Config.RunTimeout budget, and an interrupted run escalates over the
// accesses it made.
func runSampled(site *loader.Site, cfg Config) *Result {
	reportAll := cfg.Browser.ReportAll
	cheap := detectorFactory(cfg, reportAll)
	var rec *race.Recorder
	run := cfg
	// The tier's recorder keeps the trace; the browser's would duplicate it.
	run.RecordTrace = false
	run.Browser.Detector = func(g *hb.Graph) race.Detector {
		d := cheap(g)
		g.Mirror.LogMutations()
		rec = &race.Recorder{Inner: d, Clocks: g.Mirror}
		return rec
	}
	res := execute(site, run)
	st := rec.Inner.(*race.Sampled).Stats()
	info := &SampledInfo{Rate: cfg.effectiveSampleRate(), Hits: st.Hits, Stats: st}
	final := cfg
	if info.Hits > 0 {
		final.Detector = EscalationDetector
		final.SampleRate = 0
		// The factory installs a fresh mirror on the finished graph.
		g := res.Browser.HB
		exact := detectorFactory(final, reportAll)(g)
		rec.ReplayLive(g.Mirror, exact)
		rec.Inner = exact
		info.Escalated = true
	}
	if cfg.RecordTrace {
		res.Browser.SetDetector(rec)
	} else {
		res.Browser.SetDetector(rec.Inner)
	}
	collect(res, final)
	res.Sampled = info
	foldSampledTelemetry(res.Metrics, info)
	return res
}

// foldSampledTelemetry adds the tier's counters (race.sampled.*) to the
// run's registry. On an escalated run the rest of the registry describes
// the exact detector's replay; these counters describe the cheap pass
// that triggered it.
func foldSampledTelemetry(m *obs.Metrics, info *SampledInfo) {
	if m == nil || info == nil {
		return
	}
	m.Add("race.sampled.rate_pct", int64(math.Round(info.Rate*100)))
	st := info.Stats
	m.Add("race.sampled.locations", int64(st.Locations))
	m.Add("race.sampled.sampled_locations", int64(st.SampledLocations))
	m.Add("race.sampled.checked", st.Checked)
	m.Add("race.sampled.skipped", st.Skipped)
	m.Add("race.sampled.epoch_hits", st.EpochHits)
	m.Add("race.sampled.vector_checks", st.VectorChecks)
	m.Add("race.sampled.hits", int64(info.Hits))
	if info.Escalated {
		m.Add("race.sampled.escalated", 1)
	}
}

package webracer

import (
	"bytes"
	"encoding/json"
	"fmt"
	"maps"
	"reflect"
	"strings"
	"testing"

	"webracer/internal/fault"
	"webracer/internal/loader"
	"webracer/internal/race"
	"webracer/internal/sitegen"
)

// replayCase is one page of the escalation battery, with the fault plan
// it runs under (nil for fault-free pages).
type replayCase struct {
	name string
	site *loader.Site
	plan *fault.Plan
}

// replayCases covers corpus pages 0–199, the sched, fault (under a
// derived plan) and stress pages, and the paper's Fig. 1 and Fig. 4.
func replayCases() []replayCase {
	var cases []replayCase
	gen := corpusGen(1)
	for i := 0; i < 200; i++ {
		cases = append(cases, replayCase{name: fmt.Sprintf("corpus-%03d", i), site: gen(i)})
	}
	for i := 0; i < 8; i++ {
		plan := fault.ForSeed(3, i)
		cases = append(cases,
			replayCase{name: fmt.Sprintf("sched-%d", i), site: sitegen.Generate(sitegen.SchedSpec(i))},
			replayCase{name: fmt.Sprintf("fault-%d", i), site: sitegen.Generate(sitegen.FaultSpec(i)), plan: &plan})
	}
	for i := 0; i < 4; i++ {
		cases = append(cases, replayCase{name: fmt.Sprintf("stress-%d", i), site: stressGen(i)})
	}
	return append(cases,
		replayCase{name: "fig1", site: sitegen.Fig1()},
		replayCase{name: "fig4", site: sitegen.Fig4()})
}

// runView is everything TestSampledReplayEscalation compares between an
// escalated sampled Result and a direct exact run. sessionTrace is nil
// when the run recorded no trace (the export would equal session).
type runView struct {
	reports, counts, session, sessionTrace []byte
	metrics                                map[string]int64
}

func viewOf(t *testing.T, res *Result, seed int64) runView {
	t.Helper()
	errs := make([]string, len(res.Errors))
	for i, e := range res.Errors {
		errs[i] = e.String()
	}
	marshal := func(v any) []byte {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	// The tier's own counters are the one intended difference.
	metrics := res.Metrics.Snapshot()
	maps.DeleteFunc(metrics, func(k string, _ int64) bool { return strings.HasPrefix(k, "race.sampled.") })
	export := func(trace bool) []byte {
		s := Export(res, seed, nil, trace)
		s.Metrics = metrics
		return marshal(s)
	}
	v := runView{
		reports: marshal([]any{res.RawReports, res.Reports}),
		counts: marshal([]any{res.RawCounts, res.Counts, res.Ops, errs, res.ExploreStats,
			res.Interrupted, res.FaultEvents}),
		session: export(false),
		metrics: metrics,
	}
	if res.Browser.Trace() != nil {
		v.sessionTrace = export(true)
	}
	return v
}

// TestSampledReplayEscalation: an escalated sampled Result — the cheap
// pass's session with the exact detector replayed over its recording —
// equals a direct exact run of the same configuration in reports,
// counts, session shape, telemetry (race.sampled.* aside) and exported
// session bytes, with and without the access trace. Its detector is the
// exact Pairwise core and its mirror the replayed clocks.
func TestSampledReplayEscalation(t *testing.T) {
	cases := replayCases()
	escalations := 0
	for ci, tc := range cases {
		for _, reportAll := range []bool{false, true} {
			base := DefaultConfig(1 + int64(ci)*101)
			base.Telemetry = true
			base.RecordTrace = ci%2 == 0
			base.Browser.ReportAll = reportAll
			base.Fault = tc.plan
			exact := base
			exact.Detector = EscalationDetector
			var want *runView
			for _, rate := range []float64{0.1, 0.25, 1} {
				cfg := base
				cfg.Detector = DetectorSampled
				cfg.SampleRate = rate
				res := RunConfig(tc.site, cfg)
				if !res.Sampled.Escalated {
					continue
				}
				escalations++
				where := fmt.Sprintf("%s reportAll=%v rate=%g", tc.name, reportAll, rate)
				if want == nil {
					v := viewOf(t, runOnce(tc.site, exact), exact.Seed)
					want = &v
				}
				got := viewOf(t, res, cfg.Seed)
				if pw := detectorOf[*race.Pairwise](res.Browser.Detector()); pw == nil {
					t.Fatalf("%s: escalated detector %T does not unwrap to *race.Pairwise", where, res.Browser.Detector())
				}
				if m := res.Browser.HB.Mirror; m == nil || len(m.Log()) != 0 {
					t.Fatalf("%s: the session's mirror is not the replayed clocks", where)
				}
				if !bytes.Equal(got.reports, want.reports) {
					t.Fatalf("%s: reports differ from the exact run\ngot:  %s\nwant: %s", where, got.reports, want.reports)
				}
				if !bytes.Equal(got.counts, want.counts) {
					t.Fatalf("%s: counts/ops/errors/explore/interrupt differ\ngot:  %s\nwant: %s", where, got.counts, want.counts)
				}
				if !reflect.DeepEqual(got.metrics, want.metrics) {
					t.Fatalf("%s: metrics differ\ngot:  %v\nwant: %v", where, got.metrics, want.metrics)
				}
				if !bytes.Equal(got.session, want.session) {
					t.Fatalf("%s: exported session differs from the exact run's", where)
				}
				if !bytes.Equal(got.sessionTrace, want.sessionTrace) {
					t.Fatalf("%s: exported session with trace differs from the exact run's", where)
				}
			}
		}
	}
	if escalations < 100 {
		t.Fatalf("only %d escalations across the battery; the comparison is too thin", escalations)
	}
}

// TestSampledEscalationInterrupted: a sampled job whose run trips a
// safety bound after the cheap detector hit escalates over the truncated
// execution. It runs the page once, under one budget: the Result carries
// the run's interrupt reason, and its reports equal a direct exact run
// cut at the same bound.
func TestSampledEscalationInterrupted(t *testing.T) {
	site := sitegen.Generate(sitegen.SpecFor(1, 1))
	cfg := DefaultConfig(7)
	base := RunConfig(site, cfg)
	if base.Interrupted != "" {
		t.Fatalf("baseline interrupted: %s", base.Interrupted)
	}
	cfg.Browser.MaxVirtualTime = base.Browser.Clock() / 2
	cfg.Detector = DetectorSampled
	cfg.SampleRate = 1
	res := RunConfig(site, cfg)
	if res.Interrupted == "" || !res.Sampled.Escalated {
		t.Fatalf("want an interrupted, escalated run; got interrupted=%q sampled=%+v", res.Interrupted, res.Sampled)
	}
	exact := cfg
	exact.Detector, exact.SampleRate = EscalationDetector, 0
	want := runOnce(site, exact)
	if res.Interrupted != want.Interrupted {
		t.Errorf("interrupted = %q, exact run: %q", res.Interrupted, want.Interrupted)
	}
	if !bytes.Equal(reportsJSON(t, res), reportsJSON(t, want)) {
		t.Errorf("reports differ from the exact run over the same truncated execution\ngot:  %s\nwant: %s",
			reportsJSON(t, res), reportsJSON(t, want))
	}
}

package webracer

import (
	"webracer/internal/obs"
	"webracer/internal/race"
)

// foldTelemetry folds a finished run's already-maintained statistics into
// the metrics registry. Hot paths never pay for these: the browser, HB
// engine and detector keep their counters regardless, and this function
// reads them once at the end of the run. Every value is a pure function
// of (site, seed, plan), so two runs of the same triple — at any worker
// count — produce byte-identical snapshots.
func foldTelemetry(res *Result, m *obs.Metrics) {
	if m == nil {
		return
	}
	b := res.Browser
	st := b.Stats()
	m.Add("browser.ops", int64(st.Ops))
	for kind, n := range st.OpsByKind {
		m.Add("browser.ops."+kind, int64(n))
	}
	m.Add("browser.tasks_run", int64(st.TasksRun))
	m.Add("browser.windows", int64(st.Windows))
	m.Add("browser.fetches", int64(st.Fetches))
	m.Add("browser.errors", int64(st.Errors))
	// Virtual time folds as integer microseconds: float64 formatting has
	// no place in a byte-stable snapshot.
	m.Add("browser.virtual_time_us", int64(st.VirtualTime*1000))

	m.Add("hb.nodes", int64(b.HB.Len()))
	m.Add("hb.edges", int64(b.HB.Edges()))
	m.Add("hb.graph_bytes", int64(b.HB.MemoryBytes()))
	if live := b.HB.Mirror; live != nil {
		m.Add("hb.vc.chains", int64(live.Chains()))
		m.Add("hb.vc.materialized_clocks", int64(live.MaterializedClocks()))
		m.Add("hb.vc.arena_bytes", int64(live.MemoryBytes()))
	}

	if pw := detectorOf[*race.Pairwise](b.Detector()); pw != nil {
		ds := pw.Stats()
		m.Add("detector.checks", int64(ds.Checks))
		m.Add("detector.epoch_hits", int64(ds.EpochHits))
		m.Add("detector.vector_checks", int64(ds.VectorChecks))
		m.Add("detector.promotions", int64(ds.Promotions))
		m.Add("detector.demotions", int64(ds.Demotions))
		m.Add("detector.pairwise_states", int64(pw.States()))
	}

	steps := int64(0)
	for _, w := range b.Windows() {
		steps += int64(w.It.TotalSteps())
	}
	m.Add("js.steps", steps)

	m.Add("race.raw_reports", int64(len(res.RawReports)))
	m.Add("race.reports", int64(len(res.Reports)))
	if p := res.Predictive; p != nil {
		m.Add("race.predictive.predicted", int64(p.Stats.Predicted))
		m.Add("race.predictive.confirmed", int64(p.Stats.Confirmed))
		m.Add("race.predictive.witness_events", int64(p.Stats.WitnessEvents))
	}

	es := res.ExploreStats
	m.Add("explore.events_dispatched", int64(es.EventsDispatched))
	m.Add("explore.links_clicked", int64(es.LinksClicked))
	m.Add("explore.fields_typed", int64(es.FieldsTyped))
	m.Add("explore.rounds", int64(es.Rounds))

	m.Add("fault.injected", int64(len(res.FaultEvents)))
	for _, ev := range res.FaultEvents {
		m.Add("fault.injected."+ev.Kind, 1)
	}
}

// detectorOf unwraps the detector chain down to a core of type T, looking
// through the trace Recorder. Nil when a different detector runs: a
// Sampled core is not a *race.Pairwise, so a sampled run that did not
// escalate folds no detector.* counters.
func detectorOf[T race.Detector](d race.Detector) T {
	for {
		if v, ok := d.(T); ok {
			return v
		}
		r, ok := d.(*race.Recorder)
		if !ok {
			var none T
			return none
		}
		d = r.Inner
	}
}

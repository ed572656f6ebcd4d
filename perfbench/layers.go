package main

import (
	"encoding/json"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"webracer"
	"webracer/internal/browser"
	"webracer/internal/dom"
	"webracer/internal/explore"
	"webracer/internal/hb"
	"webracer/internal/html"
	"webracer/internal/js"
	"webracer/internal/loader"
	"webracer/internal/op"
	"webracer/internal/race"
	"webracer/internal/report"
	"webracer/internal/serve"
	"webracer/internal/store"
)

// layerMetrics are the traced run's per-layer metrics, named by module,
// in the order BENCHMARK.json lists them. A metric a workload's traffic
// does not exercise (a sweep layer on a detect workload, the router on a
// single node) reads 0.
var layerMetrics = []struct{ name, unit string }{
	{"html.parse_us", "us"},
	{"html.elements", "count"},
	{"js.parse_us", "us"},
	{"js.steps", "count"},
	{"browser.load_ms", "ms"},
	{"browser.tasks_run", "count"},
	{"browser.ops", "count"},
	{"loader.fetches", "count"},
	{"explore.run_ms", "ms"},
	{"explore.events_dispatched", "count"},
	{"hb.nodes", "count"},
	{"hb.edges", "count"},
	{"hb.graph_build_us", "us"},
	{"hb.live_build_us", "us"},
	{"hb.clocks_us", "us"},
	{"hb.vc.materialized_clocks", "count"},
	{"race.accesses", "count"},
	{"race.replay_us.pairwise", "us"},
	{"race.replay_us.pairwise-vc", "us"},
	{"race.replay_us.sampled", "us"},
	{"race.replay_us.accessset", "us"},
	{"race.predict_ms", "ms"},
	{"race.checks", "count"},
	{"race.vector_checks", "count"},
	{"race.instrumented_share", "ratio"},
	{"race.sampled.escalation_ratio", "ratio"},
	{"report.filter_us", "us"},
	{"sweep.runs_per_req", "count"},
	{"sweep.unpruned_ms", "ms"},
	{"sweep.pruned_ms", "ms"},
	{"prune.passes_saved_ratio", "ratio"},
	{"faultsweep_ms", "ms"},
	{"fault.injected", "count"},
	{"serve.miss_ms", "ms"},
	{"serve.hit_us", "us"},
	{"serve.overhead_us", "us"},
	{"serve.queue_wait_ms", "ms"},
	{"serve.exec_ms", "ms"},
	{"serve.cache.hit_ratio", "ratio"},
	{"serve.cache.store_hit_ratio", "ratio"},
	{"serve.cache.get_ns", "ns"},
	{"serve.cache.put_ns", "ns"},
	{"serve.router.forward_us", "us"},
	{"serve.router.attempts_per_req", "count"},
	{"store.put_us", "us"},
	{"store.get_us", "us"},
	{"trace.overhead_ratio", "ratio"},
	{"share.substrate", "ratio"},
	{"share.hb", "ratio"},
	{"share.race", "ratio"},
	{"share.report", "ratio"},
	{"share.serve", "ratio"},
}

// shareNames are the parts of a detect job's time that the traced run
// splits it into: the browser substrate (parse, interpreter, event loop,
// loader, exploration), HB construction, the race detector, the report
// filters, and the service's own overhead around the library run.
var shareNames = []string{"substrate", "hb", "race", "report", "serve"}

// cacheReps is how many cache operations one timing covers; a single
// Get is too short for the clock.
const cacheReps = 32

// layers replays each traced request's job through the public calls of
// every layer, timing each call inside a span, and collects the samples
// the per-layer metrics are reduced from.
type layers struct {
	t     *target
	c     *client
	spans *spans
	cache *serve.Cache
	store *store.Store

	mu      sync.Mutex
	samples map[string][]float64
	seen    map[*job]bool // jobs whose library layers already ran
	// Ratio numerators and denominators.
	sampledJobs, escalated int
	executions, pruned     int
	shares                 [5]time.Duration
	routed, direct         []float64
	mismatches             []string // library results that disagree with the served ones
}

func newLayers(t *target, c *client, storeDir string) (*layers, error) {
	st, err := store.Open(storeDir, nil, nil)
	if err != nil {
		return nil, err
	}
	return &layers{
		t: t, c: c, spans: newSpans(), store: st,
		cache:   serve.NewCache(1<<20, nil),
		samples: map[string][]float64{},
		seen:    map[*job]bool{},
	}, nil
}

// sample records one value of a per-layer metric.
func (l *layers) sample(name string, v float64) {
	l.mu.Lock()
	l.samples[name] = append(l.samples[name], v)
	l.mu.Unlock()
}

// exchange is one traced request: its record and the rest of its reply.
type exchange struct {
	*response
	*reply
}

// mismatch records a disagreement between the library and the service.
func (l *layers) mismatch(r exchange, format string, args ...any) {
	r.mismatch = true
	l.mu.Lock()
	l.mismatches = append(l.mismatches, r.reqID+": "+fmt.Sprintf(format, args...))
	l.mu.Unlock()
}

// after is the traced loop's per-response hook. Its root span covers the
// request and everything replayed for it.
func (l *layers) after(client int, resp *response, rp *reply) {
	r := exchange{resp, rp}
	start := time.Now().Add(-r.latency)
	root := l.spans.open("job", start, -1, r.reqID, client)
	l.spans.add(span{name: "serve.request", start: start.Sub(l.spans.origin),
		end: start.Add(r.latency).Sub(l.spans.origin), parent: root, reqID: r.reqID, client: client})
	defer l.spans.close(root)
	if !r.ok() {
		return
	}
	sc := scope{l.spans, root, r.reqID, client}
	l.serveLayers(sc, r)
	l.mu.Lock()
	first := !l.seen[r.job]
	l.seen[r.job] = true
	l.mu.Unlock()
	if first {
		l.storeLayer(sc, r)
		l.libraryLayers(sc, r)
	}
}

// serveLayers times the service-side layers around one response: the
// result cache's Get/Put with this body, and — behind a router — the same
// request sent straight to the backend that served it.
func (l *layers) serveLayers(sc scope, r exchange) {
	switch r.cache {
	case "miss":
		l.sample("serve.miss_ms", ms(r.latency))
	case "hit", "store-hit":
		l.sample("serve.hit_us", us(r.latency))
	}
	keys := make([]string, cacheReps)
	for k := range keys {
		keys[k] = fmt.Sprintf("%s/%d", r.jobKey, k)
	}
	put := sc.span("serve.cache.put", func(scope) {
		for _, k := range keys {
			l.cache.Put(k, r.body)
		}
	})
	get := sc.span("serve.cache.get", func(scope) {
		for _, k := range keys {
			l.cache.Get(k)
		}
	})
	l.sample("serve.cache.put_ns", float64(put.Nanoseconds())/cacheReps)
	l.sample("serve.cache.get_ns", float64(get.Nanoseconds())/cacheReps)

	if l.t.backends == nil {
		return
	}
	l.sample("serve.router.attempts_per_req", float64(r.attempts))
	url, ok := l.t.backends[r.backend]
	if !ok {
		l.mismatch(r, "routed response names unknown backend %q", r.backend)
		return
	}
	var d response
	sc.span("serve.direct", func(scope) { d, _ = l.c.send(url, r.job, r.i, r.reqID+"-direct") })
	if !d.ok() || d.sum != r.sum {
		l.mismatch(r, "backend %s answered differently from the router", r.backend)
		return
	}
	l.mu.Lock()
	l.routed = append(l.routed, us(r.latency))
	l.direct = append(l.direct, us(d.latency))
	l.mu.Unlock()
}

// storeLayer times the persistent store's Put (with fsync) and Get of the
// served body.
func (l *layers) storeLayer(sc scope, r exchange) {
	var err error
	put := sc.span("store.put", func(scope) { err = l.store.Put(r.jobKey, r.body) })
	if err != nil {
		l.mismatch(r, "store put: %v", err)
		return
	}
	var got []byte
	get := sc.span("store.get", func(scope) { got, _ = l.store.Get(r.jobKey) })
	if string(got) != string(r.body) {
		l.mismatch(r, "store returned different bytes")
	}
	l.sample("store.put_us", us(put))
	l.sample("store.get_us", us(get))
}

// servedBody is the part of a response body the library results are
// checked against.
type servedBody struct {
	RawRaces  int   `json:"rawRaces"`
	Escalated bool  `json:"escalated"`
	PerSeed   []int `json:"perSeed"`
	Runs      int   `json:"runs"`
	Sweep     *struct {
		Runs []struct {
			Races []string `json:"races"`
		} `json:"runs"`
	} `json:"sweep"`
}

// libraryLayers replays the job through the library's layers: HTML and JS
// parsing, the browser substrate, one recorded run whose HB graph and
// access trace are replayed into each HB engine and each detector, the
// report filters, and for sweeps the sweep drivers. Detect jobs check the
// served race count against the replay of the detector that served them.
func (l *layers) libraryLayers(sc scope, r exchange) {
	j := r.job
	site := j.page.site
	cfg := j.config()
	var served servedBody
	if err := json.Unmarshal(r.body, &served); err != nil {
		l.mismatch(r, "served body: %v", err)
		return
	}

	var scripts []string
	l.sample("html.parse_us", us(sc.span("html.parse", func(scope) { scripts = parseHTML(site) })))
	l.sample("js.parse_us", us(sc.span("js.parse", func(scope) {
		for _, src := range scripts {
			_, _ = js.Parse(src) // a syntax error is part of the page, not of the benchmark
		}
	})))

	// The served configuration through the library, with and without
	// instrumentation.
	instD := sc.span("library.run", func(scope) { webracer.RunConfig(site, cfg) })
	plain := cfg
	plain.Browser.NoInstrument = true
	plainD := sc.span("library.run_noinstrument", func(scope) { webracer.RunConfig(site, plain) })
	l.sample("race.instrumented_share", ratio(float64(instD-plainD), float64(instD)))

	// The substrate alone: load, then explore, uninstrumented.
	var b *browser.Browser
	l.sample("browser.load_ms", ms(sc.span("browser.load", func(scope) {
		b = browser.New(site, browser.Config{Seed: cfg.Seed, SharedFrameGlobals: true, NoInstrument: true})
		b.LoadPage(cfg.EntryURL)
	})))
	l.sample("explore.run_ms", ms(sc.span("explore.run", func(scope) { explore.Run(b, explore.Default()) })))

	// One recorded run supplies the access trace, the HB graph and the
	// telemetry counters.
	rec := cfg
	rec.Detector, rec.SampleRate = webracer.DetectorPairwise, 0
	rec.RecordTrace, rec.Telemetry = true, true
	var res *webracer.Result
	sc.span("library.record", func(scope) { res = webracer.RunConfig(site, rec) })
	tel := res.Metrics.Snapshot()
	for metric, counter := range map[string]string{
		"html.elements":             "parse.elements",
		"js.steps":                  "js.steps",
		"browser.tasks_run":         "browser.tasks_run",
		"browser.ops":               "browser.ops",
		"loader.fetches":            "browser.fetches",
		"explore.events_dispatched": "explore.events_dispatched",
		"hb.nodes":                  "hb.nodes",
		"hb.edges":                  "hb.edges",
	} {
		l.sample(metric, float64(tel[counter]))
	}
	trace, g0 := res.Browser.Trace(), res.Browser.HB
	l.sample("race.accesses", float64(len(trace)))

	var graphD, liveD time.Duration
	sc.span("hb", func(h scope) {
		graphD = h.span("hb.graph_build", func(scope) { replayGraph(g0) })
		liveD = h.span("hb.live_build", func(scope) { replayLive(g0) })
		l.sample("hb.clocks_us", us(h.span("hb.clocks", func(scope) { hb.NewClocks(g0).Chains() })))
	})
	l.sample("hb.graph_build_us", us(graphD))
	l.sample("hb.live_build_us", us(liveD))

	// Every detector over a fresh oracle of its own; building the oracles
	// is the race span's self time.
	reports := map[string][]race.Report{}
	replayD := map[string]time.Duration{}
	sc.span("race", func(rs scope) {
		replay := func(name string, d race.Detector) {
			replayD[name] = rs.span("race.replay."+name, func(scope) { reports[name] = race.Replay(trace, d) })
		}
		replay("pairwise", race.NewPairwise(replayGraph(g0)))
		live := replayLive(g0)
		vc := race.NewPairwise(live)
		replay("pairwise-vc", vc)
		l.sample("race.checks", float64(vc.Stats().Checks))
		l.sample("race.vector_checks", float64(vc.Stats().VectorChecks))
		l.sample("hb.vc.materialized_clocks", float64(live.MaterializedClocks()))
		replay("sampled", race.NewSampled(replayLive(g0), webracer.DefaultSampleRate, cfg.Seed))
		replay("accessset", race.NewAccessSet(replayGraph(g0), race.OnePerLoc()))
		g := replayGraph(g0)
		replayD["predictive"] = rs.span("race.predict", func(scope) {
			reports["predictive"] = race.Predict(trace, g).RaceReports()
		})
	})
	for _, name := range []string{"pairwise", "pairwise-vc", "sampled", "accessset"} {
		l.sample("race.replay_us."+name, us(replayD[name]))
	}
	l.sample("race.predict_ms", ms(replayD["predictive"]))
	escalates := len(reports["sampled"]) > 0
	l.mu.Lock()
	l.sampledJobs++
	if escalates {
		l.escalated++
	}
	l.mu.Unlock()

	det := cfg.Detector.String()
	raw := reports[det]
	if cfg.Detector == webracer.DetectorSampled && escalates {
		raw = reports[webracer.EscalationDetector.String()]
	}
	filterD := sc.span("report.filter", func(scope) {
		report.ApplyCounted(raw, map[string]int{}, report.FormFilter{}, report.SingleDispatchFilter{})
	})
	l.sample("report.filter_us", us(filterD))

	switch {
	case j.endpoint == "detect":
		if cfg.Detector == webracer.DetectorSampled && served.Escalated != escalates {
			l.mismatch(r, "served escalated=%v, sampled replay found %d races", served.Escalated, len(reports["sampled"]))
		}
		if len(raw) != served.RawRaces {
			l.mismatch(r, "served %d races, %s replay found %d", served.RawRaces, det, len(raw))
		}
		if r.cache != "miss" {
			break
		}
		// The job's time, split by layer.
		hbD := graphD
		if cfg.Detector == webracer.DetectorPairwiseVC || cfg.Detector == webracer.DetectorSampled {
			hbD += liveD
		}
		serveD := max(r.latency-instD, 0)
		l.sample("serve.overhead_us", us(r.latency-instD))
		l.mu.Lock()
		for k, d := range []time.Duration{plainD, hbD, replayD[det], filterD, serveD} {
			l.shares[k] += d
		}
		l.mu.Unlock()
	case j.endpoint == "sweep" && j.mode == "":
		l.sweepLayers(sc, r, cfg, served)
	case j.endpoint == "sweep":
		var sw *webracer.ScheduleSweep
		sc.span("sweep.delay_one", func(scope) {
			sw, _ = webracer.ExploreSchedulesParallel(site, cfg, webracer.ParallelConfig{Workers: 1})
		})
		l.sample("sweep.runs_per_req", float64(sw.Runs))
		if sw.Runs != served.Runs {
			l.mismatch(r, "served %d delay-one runs, library ran %d", served.Runs, sw.Runs)
		}
	case j.endpoint == "faultsweep":
		var fs *webracer.FaultSweep
		l.sample("faultsweep_ms", ms(sc.span("faultsweep", func(scope) {
			fs, _ = webracer.RunFaultSweep(site, cfg, webracer.FaultSweepConfig{Plans: j.plans},
				webracer.ParallelConfig{Workers: 1})
		})))
		injected := 0
		for _, run := range fs.Runs {
			injected += run.Faults
		}
		l.sample("fault.injected", float64(injected))
		l.sample("sweep.runs_per_req", float64(len(fs.Runs)))
		if served.Sweep == nil || len(served.Sweep.Runs) != len(fs.Runs) {
			l.mismatch(r, "served fault sweep differs in run count from the library's %d", len(fs.Runs))
			break
		}
		for k, run := range fs.Runs {
			if !slices.Equal(run.Races, served.Sweep.Runs[k].Races) {
				l.mismatch(r, "fault plan %s: served and library races differ", run.Plan)
			}
		}
	}
}

// sweepLayers runs a seeds-mode sweep's schedules through the library's
// sweep driver unpruned and pruned, and checks both against the served
// per-seed race counts.
func (l *layers) sweepLayers(sc scope, r exchange, cfg webracer.Config, served servedBody) {
	site, n := r.job.page.site, r.job.seeds
	var un, pr *webracer.SeedSweep
	var stats webracer.ClassStats
	unD := sc.span("sweep.unpruned", func(scope) {
		un, _ = webracer.RunSeedsParallel(site, cfg, n, webracer.ParallelConfig{Workers: 1})
	})
	prD := sc.span("sweep.pruned", func(scope) {
		pr, _ = webracer.RunSeedsParallel(site, cfg, n, webracer.ParallelConfig{Workers: 1, Prune: true, Classes: &stats})
	})
	l.sample("sweep.unpruned_ms", ms(unD))
	l.sample("sweep.pruned_ms", ms(prD))
	l.sample("sweep.runs_per_req", float64(n))
	l.mu.Lock()
	l.executions += stats.Executions
	l.pruned += stats.Pruned
	l.mu.Unlock()
	if !slices.Equal(un.PerSeed, served.PerSeed) || !slices.Equal(pr.PerSeed, served.PerSeed) {
		l.mismatch(r, "served per-seed races %v, library unpruned %v, pruned %v", served.PerSeed, un.PerSeed, pr.PerSeed)
	}
}

// parseHTML parses every HTML resource of the site as the browser's
// loader would and returns the page's scripts: external .js resources and
// inline <script> bodies.
func parseHTML(site *loader.Site) []string {
	var scripts []string
	serials := &dom.Serials{}
	for url, body := range site.Resources {
		switch {
		case strings.HasSuffix(url, ".js"):
			scripts = append(scripts, body)
		case strings.HasSuffix(url, ".html"):
			p := html.NewParser(dom.NewDocument(url, serials), body)
			for ev := p.Next(); ev.Kind != html.EventDone; ev = p.Next() {
				if ev.Kind == html.EventOpen && ev.Node.Tag == "script" && ev.Node.Text != "" {
					scripts = append(scripts, ev.Node.Text)
				}
			}
		}
	}
	return scripts
}

// replayGraph rebuilds a finished graph node by node, in operation order,
// with each node's in-edges (weak ones as weak) — the node/edge stream the
// browser produced, replayed into a fresh hb.Graph.
func replayGraph(g0 *hb.Graph) *hb.Graph {
	g := hb.NewGraph()
	for id := op.ID(1); int(id) <= g0.Len(); id++ {
		g.AddNode(id)
		for _, p := range g0.Preds(id) {
			if g0.IsWeak(p, id) {
				g.WeakEdge(p, id)
			} else {
				g.Edge(p, id)
			}
		}
	}
	return g
}

// replayLive replays the same stream into a fresh incremental
// vector-clock engine.
func replayLive(g0 *hb.Graph) *hb.LiveClocks {
	lc := hb.NewLiveClocks()
	for id := op.ID(1); int(id) <= g0.Len(); id++ {
		lc.AddNode(id)
		for _, p := range g0.Preds(id) {
			lc.Edge(p, id)
		}
	}
	return lc
}

// nodeHist sums a wall-clock histogram's count and sum over the nodes.
func nodeHist(nodes []*serve.Server, name string) (count, sum int64) {
	for _, s := range nodes {
		h := s.Metrics().WallHistogram(name, "ms", nil)
		count += h.Count()
		sum += h.Sum()
	}
	return count, sum
}

// reduce turns the collected samples into the per-layer metric values.
func (l *layers) reduce(traced []response) map[string]float64 {
	v := map[string]float64{}
	for name, xs := range l.samples {
		v[name] = median(xs)
	}
	for _, name := range []string{"sweep.runs_per_req", "fault.injected", "serve.router.attempts_per_req"} {
		v[name] = mean(l.samples[name])
	}
	v["race.sampled.escalation_ratio"] = ratio(float64(l.escalated), float64(l.sampledJobs))
	v["prune.passes_saved_ratio"] = ratio(float64(l.pruned), float64(l.executions))
	if len(l.routed) > 0 {
		v["serve.router.forward_us"] = median(l.routed) - median(l.direct)
	}
	levels := map[string]int{}
	ok := 0
	for _, r := range traced {
		if r.ok() {
			ok++
			levels[r.cache]++
		}
	}
	v["serve.cache.hit_ratio"] = ratio(float64(levels["hit"]), float64(ok))
	v["serve.cache.store_hit_ratio"] = ratio(float64(levels["store-hit"]), float64(ok))
	total := time.Duration(0)
	for _, d := range l.shares {
		total += d
	}
	for k, name := range shareNames {
		v["share."+name] = ratio(float64(l.shares[k]), float64(total))
	}
	return v
}

// printShares answers §6's "where does the time go" for the traced detect
// jobs: each layer's share of a job's time, the largest first.
func (l *layers) printShares(v map[string]float64) {
	if v["share.substrate"] == 0 {
		fmt.Println("shares: no traced detect misses on this workload")
		return
	}
	names := append([]string(nil), shareNames...)
	sort.Slice(names, func(a, b int) bool { return v["share."+names[a]] > v["share."+names[b]] })
	fmt.Print("shares of a detect job's time:")
	for _, n := range names {
		fmt.Printf(" %s %.1f%%", n, 100*v["share."+n])
	}
	fmt.Printf("; race.instrumented_share %.1f%%\n", 100*v["race.instrumented_share"])
	fmt.Printf("largest layer: %s\n", names[0])
}

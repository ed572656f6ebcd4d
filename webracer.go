// Package webracer is a Go reproduction of WEBRACER, the dynamic race
// detector for web applications of "Race Detection for Web Applications"
// (Petrov, Vechev, Sridharan, Dolby — PLDI 2012).
//
// The original instruments the WebKit engine; this reproduction instruments
// a from-scratch simulated browser (incremental HTML parser, DOM,
// JavaScript-subset interpreter, virtual-time event loop with simulated
// network) — see DESIGN.md for the substitution argument. On top of that
// substrate it implements the paper's three contributions: the
// happens-before relation for web platform features (§3), the logical
// memory access model (§4), and the dynamic race detector with automatic
// exploration and report filters (§5).
//
// Quick start:
//
//	site := loader.NewSite("demo").Add("index.html", `...`)
//	res := webracer.RunConfig(site, webracer.DefaultConfig(1))
//	for _, r := range res.Reports {
//	    fmt.Println(report.Classify(r), r)
//	}
//
// Config holds every knob (Seed, Detector, Filters, ...); DefaultConfig
// starts from the paper's evaluation configuration.
package webracer

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"time"

	"webracer/internal/browser"
	"webracer/internal/dom"
	"webracer/internal/explore"
	"webracer/internal/fault"
	"webracer/internal/hb"
	"webracer/internal/loader"
	"webracer/internal/mem"
	"webracer/internal/obs"
	"webracer/internal/race"
	"webracer/internal/report"
)

// DetectorKind selects the race detection algorithm.
type DetectorKind int

const (
	// DetectorPairwise is the paper's constant-space algorithm (§5.1)
	// over the graph-reachability happens-before (the paper's shipped
	// configuration).
	DetectorPairwise DetectorKind = iota
	// DetectorAccessSet keeps full per-location history, fixing the
	// §5.1 limitation (more races, more memory).
	DetectorAccessSet
	// DetectorPairwiseVC is the pairwise algorithm over the online
	// vector-clock oracle — the §5.2.1 future-work representation, live.
	DetectorPairwiseVC
	// DetectorPredictive records the full access trace of one execution
	// and analyzes it against the predictive partial order — full
	// happens-before minus the schedule-induced dispatch-serialization
	// edges (HB rule 9) — in the WCP/SDP tradition. It reports every race
	// of the observed run (superset of the pairwise detector) plus races
	// of *other* feasible schedules, each certified by a witness
	// reordering (Result.Predictive). One instrumented run replaces a
	// seed sweep for schedule-dependent races reachable from the recorded
	// control flow.
	DetectorPredictive
	// DetectorSampled is the fast tier for bulk traffic: the pairwise
	// detector of DetectorPairwiseVC, checking only a deterministically
	// sampled subset of locations (Config.SampleRate) with zero
	// steady-state allocations. Any sampled hit escalates the run to
	// the exact detector (DetectorPairwiseVC), replayed over the
	// accesses and happens-before mutations the run recorded, whose
	// reports replace the tier's; the page runs once either way.
	// Result.Sampled records the tier's accounting. At rate 1 the
	// output equals the exact detector's; at lower rates reports are
	// always a subset of it. See DESIGN.md "Sampled tier".
	DetectorSampled
)

// DetectorKinds returns every detector kind, in declaration order — the
// single enumeration behind ParseDetector, the round-trip tests and
// webracerd's GET /v1/detectors capability endpoint.
func DetectorKinds() []DetectorKind {
	return []DetectorKind{
		DetectorPairwise, DetectorAccessSet, DetectorPairwiseVC,
		DetectorPredictive, DetectorSampled,
	}
}

// String returns the kind's stable API name — the same spelling
// cmd/webracer's -detector flag and the webracerd request field accept.
func (k DetectorKind) String() string {
	switch k {
	case DetectorAccessSet:
		return "accessset"
	case DetectorPairwiseVC:
		return "pairwise-vc"
	case DetectorPredictive:
		return "predictive"
	case DetectorSampled:
		return "sampled"
	default:
		return "pairwise"
	}
}

// ErrUnknownDetector is returned (wrapped) by ParseDetector for a name
// that is not a detector spelling; the error message lists the valid
// ones. Test with errors.Is.
var ErrUnknownDetector = errors.New("unknown detector")

// ParseDetector maps a detector name to its DetectorKind — the inverse of
// DetectorKind.String, so ParseDetector(k.String()) == k for every kind
// (a table-driven test pins the round trip). The empty string parses as
// DetectorPairwise, the default. The CLI -detector flag and the webracerd
// API both parse through here, so the accepted spellings cannot drift.
func ParseDetector(name string) (DetectorKind, error) {
	if name == "" {
		return DetectorPairwise, nil
	}
	kinds := DetectorKinds()
	for _, k := range kinds {
		if name == k.String() {
			return k, nil
		}
	}
	spellings := make([]string, len(kinds))
	for i, k := range kinds {
		spellings[i] = k.String()
	}
	return DetectorPairwise, fmt.Errorf("webracer: %w %q (want %s)",
		ErrUnknownDetector, name, strings.Join(spellings, ", "))
}

// Config tunes one detection session.
type Config struct {
	// Seed drives all simulated nondeterminism.
	Seed int64
	// Explore enables automatic exploration after window load (§5.2.2).
	Explore bool
	// Exhaustive switches exploration to the feedback-directed mode
	// (repeated rounds until no new handlers appear — the Artemis-style
	// deeper exploration the paper defers to future work, §8). It implies
	// Explore.
	Exhaustive bool
	// Filters enables the §5.3 report filters (form races and
	// single-dispatch events).
	Filters bool
	// Detector picks the algorithm.
	Detector DetectorKind
	// SampleRate is DetectorSampled's location sampling probability in
	// (0, 1]; 0 applies DefaultSampleRate. Setting it with any other
	// detector fails Validate — the other detectors are exact and do not
	// sample. Rate 1 checks every location (output equals the exact
	// detector's); lower rates trade recall for constant cheap-tier cost,
	// recovered by escalation on hit.
	SampleRate float64
	// RecordTrace keeps the access trace (needed for vector-clock
	// replay and by the harm oracle).
	RecordTrace bool
	// HarmRuns is the number of adversarial schedules ClassifyHarmful
	// tries (more runs catch behaviours that need a specific unlucky
	// ordering). Zero means 1.
	HarmRuns int
	// Browser overrides low-level simulation knobs; zero values default.
	Browser browser.Config
	// EntryURL is the page to load (default "index.html").
	EntryURL string
	// Fault, when non-nil, injects deterministic network faults per the
	// plan (see internal/fault): the run's races are annotated with the
	// plan label and Result.FaultEvents records what was injected.
	Fault *fault.Plan
	// RunTimeout caps the run's wall-clock time; 0 means unlimited. A
	// tripped timeout yields a partial Result with Interrupted set rather
	// than an error — sweeps report such runs as degraded.
	RunTimeout time.Duration
	// Telemetry populates a deterministic metrics registry for the run
	// (Result.Metrics): parser, event loop, HB engine, detector and
	// filter counters, byte-identical across runs of the same
	// (site, seed, plan) at any worker count. Off by default — every
	// hot-path hook is a nil no-op then.
	Telemetry bool
	// TimeTrace records the run as a Chrome trace_event stream over
	// virtual time (Result.Trace), loadable in chrome://tracing and
	// Perfetto. Independent of RecordTrace, which records the *access*
	// trace for replay.
	TimeTrace bool
}

// DefaultConfig matches the paper's evaluation configuration: automatic
// exploration on, filters off (Table 1 is raw; apply filters for Table 2).
func DefaultConfig(seed int64) Config {
	return Config{Seed: seed, Explore: true}
}

// Result is the outcome of running the detector over one site.
type Result struct {
	Site string
	// RawReports are all races found (at most one per location, like
	// WebRacer).
	RawReports []race.Report
	// Reports are the races surviving the configured filters (equal to
	// RawReports when filters are off).
	Reports []race.Report
	// Counts tallies Reports by race type; RawCounts tallies RawReports.
	Counts    report.Counts
	RawCounts report.Counts
	// Errors are the page errors (hidden crashes, fetch failures).
	Errors []browser.PageError
	// Ops is the number of operations the execution performed.
	Ops int
	// ExploreStats summarizes automatic exploration.
	ExploreStats explore.Stats
	// Browser exposes the finished session for further inspection.
	Browser *browser.Browser
	// Fault is the plan the run executed under (nil for fault-free runs).
	Fault *fault.Plan
	// FaultEvents are the injections that actually fired, in fetch order.
	FaultEvents []fault.Event
	// Interrupted names why the run stopped early (wall-clock budget,
	// cancellation, virtual-time/task safety bounds); empty for complete
	// runs. An interrupted Result holds valid partial results.
	Interrupted string
	// Predictive is the predictive pass's full result (witnesses, stats);
	// nil unless the run used DetectorPredictive. Its RaceReports
	// projection is what RawReports holds then.
	Predictive *race.PredictiveResult
	// Sampled is the fast tier's accounting (rate, hits, whether the run
	// escalated to the exact detector); nil unless the run used
	// DetectorSampled. On an escalated run the rest of the Result is what
	// a direct DetectorPairwiseVC run reports: the same session, analyzed
	// by the exact detector.
	Sampled *SampledInfo
	// Metrics is the run's telemetry registry (nil unless Config.Telemetry).
	Metrics *obs.Metrics
	// Trace is the run's virtual-time Chrome trace (nil unless
	// Config.TimeTrace).
	Trace *obs.TraceLog
}

// detectorFactory builds the browser-level detector constructor for
// cfg.Detector — the single parameterized factory behind all DetectorKind
// values.
func detectorFactory(cfg Config, reportAll bool) func(*hb.Graph) race.Detector {
	var ropts []race.Option
	if reportAll {
		ropts = append(ropts, race.ReportAll())
	}
	switch cfg.Detector {
	case DetectorAccessSet:
		// Complete history, but WebRacer's one-report-per-location cap so
		// counts stay comparable across detectors.
		return func(g *hb.Graph) race.Detector {
			return race.NewAccessSet(g, race.OnePerLoc())
		}
	case DetectorPairwiseVC:
		return func(g *hb.Graph) race.Detector {
			live := hb.NewLiveClocks()
			g.Mirror = live
			return race.NewPairwise(live, ropts...)
		}
	case DetectorSampled:
		// The fast tier is PairwiseVC behind the sampler's admission
		// predicate: the same live vector-clock mirror, the same core.
		rate, seed := cfg.effectiveSampleRate(), cfg.Seed
		return func(g *hb.Graph) race.Detector {
			live := hb.NewLiveClocks()
			g.Mirror = live
			return race.NewSampled(live, rate, seed, ropts...)
		}
	default:
		// DetectorPairwise — and DetectorPredictive's live arm: the
		// predictive pass runs post-run over the recorded trace, with the
		// paper's detector riding along live for its telemetry counters.
		return func(g *hb.Graph) race.Detector {
			return race.NewPairwise(g, ropts...)
		}
	}
}

// RunConfig loads the site, optionally explores it, and reports races
// under cfg. DefaultConfig reproduces the paper's evaluation
// configuration (exploration on, filters off); every knob is a Config
// field.
//
// RunConfig panics if cfg fails Validate (programmer error, like a
// malformed regexp); API boundaries — the CLIs, webracerd — validate
// first and turn the typed errors into exit codes or 400s.
func RunConfig(site *loader.Site, cfg Config) *Result {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	if cfg.Detector == DetectorSampled && cfg.Browser.Detector == nil {
		return runSampled(site, cfg)
	}
	return runOnce(site, cfg)
}

// runOnce executes one detection pass with cfg taken literally — no
// validation, no tiering: execute, then collect. The sampled tier calls
// the two halves itself, with its escalation in between.
func runOnce(site *loader.Site, cfg Config) *Result {
	return collect(execute(site, cfg), cfg)
}

// execute runs the browser over the site — load, then exploration — and
// returns the Result's session half: Site, Browser, ExploreStats,
// FaultEvents and the telemetry sinks. collect reads the detection half
// off the finished session.
func execute(site *loader.Site, cfg Config) *Result {
	bcfg := cfg.Browser
	bcfg.Seed = cfg.Seed
	bcfg.SharedFrameGlobals = true
	bcfg.RecordTrace = cfg.RecordTrace
	if cfg.Detector == DetectorPredictive {
		// The predictive pass analyzes the recorded trace post-run.
		bcfg.RecordTrace = true
	}
	if cfg.RunTimeout > 0 {
		bcfg.WallBudget = cfg.RunTimeout
	}
	if bcfg.Detector == nil {
		bcfg.Detector = detectorFactory(cfg, bcfg.ReportAll)
	}
	// Telemetry instances are created per run, never shared: a parallel
	// sweep gives every (site, seed) its own registry and trace, which is
	// what makes the output independent of worker count.
	var m *obs.Metrics
	var tl *obs.TraceLog
	if cfg.Telemetry {
		m = obs.New()
		bcfg.Metrics = m
	}
	if cfg.TimeTrace {
		tl = obs.NewTrace()
		bcfg.Trace = tl
	}
	var inj *fault.Injector
	if cfg.Fault != nil {
		// Compose with any caller-supplied wrapper: the injector sits
		// outermost so its decisions see the same fetch sequence the
		// fault-free run would issue.
		userWrap := bcfg.WrapFetcher
		bcfg.WrapFetcher = func(f loader.Fetcher) loader.Fetcher {
			if userWrap != nil {
				f = userWrap(f)
			}
			inj = fault.New(f, *cfg.Fault)
			return inj
		}
	}
	b := browser.New(site, bcfg)
	if inj != nil && tl != nil {
		// Fault injections become instant events at the virtual time of
		// the faulted fetch — purely observational, never part of the
		// injection decision.
		inj.OnEvent = func(ev fault.Event) {
			args := map[string]any{"url": ev.URL, "index": ev.Index, "kind": ev.Kind}
			if ev.Status != 0 {
				args["status"] = ev.Status
			}
			tl.Instant("fault", ev.Kind+" "+ev.URL, b.Clock(), args)
		}
	}
	entry := cfg.EntryURL
	if entry == "" {
		entry = "index.html"
	}
	b.LoadPage(entry)
	res := &Result{Site: site.Name, Browser: b, Metrics: m, Trace: tl}
	if cfg.Explore || cfg.Exhaustive {
		if cfg.Exhaustive {
			res.ExploreStats = explore.Exhaustive(b, explore.Default(), 0)
		} else {
			res.ExploreStats = explore.Run(b, explore.Default())
		}
	}
	if inj != nil {
		res.FaultEvents = inj.Events()
	}
	return res
}

// collect completes an executed Result under cfg: the session detector's
// reports (or the predictive pass's), the configured filters, the fault
// plan's environment label, and the telemetry fold.
func collect(res *Result, cfg Config) *Result {
	b, m := res.Browser, res.Metrics
	res.RawReports = b.Reports()
	if cfg.Detector == DetectorPredictive {
		// Predictive pass over the recorded execution: its reports
		// (observed ∪ predicted) replace the live detector's.
		res.Predictive = race.Predict(b.Trace(), b.HB)
		res.RawReports = res.Predictive.RaceReports()
	}
	res.RawCounts = report.Count(res.RawReports)
	res.Reports = res.RawReports
	if cfg.Filters {
		var suppressed map[string]int
		if m != nil {
			suppressed = map[string]int{}
		}
		res.Reports = report.ApplyCounted(res.RawReports, suppressed,
			report.FormFilter{}, report.SingleDispatchFilter{})
		for name, n := range suppressed {
			m.Add("filter.suppressed."+name, int64(n))
		}
	}
	res.Counts = report.Count(res.Reports)
	res.Errors = b.Errors
	res.Ops = b.Ops.Len()
	res.Interrupted = b.Interrupted
	if cfg.Fault != nil {
		res.Fault = cfg.Fault
		env := cfg.Fault.Label()
		for i := range res.RawReports {
			res.RawReports[i].Env = env
		}
		for i := range res.Reports {
			res.Reports[i].Env = env
		}
		if res.Predictive != nil {
			for i := range res.Predictive.Reports {
				res.Predictive.Reports[i].Env = env
			}
		}
	}
	foldTelemetry(res, m)
	return res
}

// SeedSweep aggregates detection across several simulated schedules: the
// same site is run under n different seeds and the union of race locations
// is reported, with per-location hit counts. Because the detector reasons
// over happens-before rather than observed order, most races are found by
// every seed (the paper: "races reported across different runs for the same
// site had little variance"); the sweep quantifies that and catches the
// remainder — races whose code only executes under some schedules.
// SeedSweep marshals deterministically (encoding/json emits string-keyed
// maps in sorted key order), so sweeps can be golden-tested like sessions.
type SeedSweep struct {
	// Locations maps each racing location (as a string) to the number of
	// seeds that reported it.
	Locations map[string]int `json:"locations"`
	// Seeds is the number of runs performed.
	Seeds int `json:"seeds"`
	// PerSeed is the race count of each run.
	PerSeed []int `json:"perSeed"`
	// Degraded lists runs that completed partially (budget, cancellation,
	// safety bounds) as "seed <seed>: reason" in seed order. Their
	// partial results are still folded in.
	Degraded []string `json:"degraded,omitempty"`
	// Ops is the total operation count of the runs; it is not marshalled.
	Ops int `json:"-"`
}

// Stable returns the locations reported by every seed, and Flaky those
// reported by only some. Both slices are sorted, so callers printing
// them stay deterministic.
func (s *SeedSweep) Stable() (stable, flaky []string) {
	for loc, hits := range s.Locations {
		if hits == s.Seeds {
			stable = append(stable, loc)
		} else {
			flaky = append(flaky, loc)
		}
	}
	sort.Strings(stable)
	sort.Strings(flaky)
	return stable, flaky
}

// ---- harm oracle ----

// Harm classifies which reported races are harmful, in the paper's §6
// sense: HTML/function races that can crash, form-value races that can
// erase user input, single-dispatch event races whose handler can miss its
// event. Classification is behavioural: the site is re-run under an
// adversarial schedule (slow network and CPU, eager user) and the bad
// behaviours observed there are mapped back to the races of the primary
// run.
type Harm struct {
	// Harmful[i] corresponds to Reports[i] of the classified Result.
	Harmful []bool `json:"harmful"`
	// Counts tallies harmful races by type.
	Counts report.Counts `json:"counts"`
	// Evidence explains each harmful classification.
	Evidence []string `json:"evidence"`
}

// Total reports the number of harmful races.
func (h *Harm) Total() int {
	n := 0
	for _, v := range h.Harmful {
		if v {
			n++
		}
	}
	return n
}

// judge folds one adversarial run's observations into the
// classification: a report already marked harmful keeps its first
// evidence.
func (h *Harm) judge(adv *adversary, res *Result) {
	for i, r := range res.Reports {
		if h.Harmful[i] {
			continue
		}
		harmful, why := adv.judge(res.Browser, r)
		if harmful {
			h.Harmful[i] = true
			h.Counts[report.Classify(r)]++
			h.Evidence = append(h.Evidence, fmt.Sprintf("%s: %s", report.Classify(r), why))
		}
	}
}

// adversary holds the bad behaviours observed in the adversarial run.
type adversary struct {
	b *browser.Browser
	// crashedLookups holds element ids whose failed lookup was followed
	// by a crash in the same operation.
	crashedLookups map[string]bool
	// badNames holds function/variable names implicated in
	// ReferenceError / "not a function" crashes.
	badNames map[string]bool
	// lostInputs holds node keys of form fields whose typed text was
	// erased.
	lostInputs map[string]bool
	// missedHandlers holds (nodeKey|event) pairs whose handler
	// registration was observed after the event's final dispatch.
	missedHandlers map[string]bool
}

const typedMarker = "WEBRACER-TYPED"

func runAdversarial(site *loader.Site, cfg Config) *adversary {
	bcfg := cfg.Browser
	bcfg.Seed = cfg.Seed + 7777
	bcfg.SharedFrameGlobals = true
	bcfg.RecordTrace = true
	// Slow CPU and slow script network, fast images: scripts lose every
	// race they can lose; images load before monitors attach.
	if bcfg.ParseStepCost == 0 {
		bcfg.ParseStepCost = 8
	}
	lat := loader.Latency{Base: 60, Jitter: 120, PerURL: map[string]float64{}}
	for url := range site.Resources {
		if strings.HasSuffix(url, ".png") || strings.HasSuffix(url, ".jpg") ||
			strings.HasSuffix(url, ".jpeg") || strings.HasSuffix(url, ".gif") {
			lat.PerURL[url] = 1
		}
	}
	bcfg.Latency = lat
	b := browser.New(site, bcfg)
	opts := explore.Default()
	opts.TypedText = typedMarker
	opts.EagerDelay = 4
	explore.EagerLoad(b, entryOf(cfg), opts)

	adv := &adversary{
		b:              b,
		crashedLookups: map[string]bool{},
		badNames:       map[string]bool{},
		lostInputs:     map[string]bool{},
		missedHandlers: map[string]bool{},
	}
	adv.analyze()
	return adv
}

func entryOf(cfg Config) string {
	if cfg.EntryURL != "" {
		return cfg.EntryURL
	}
	return "index.html"
}

func (a *adversary) analyze() {
	trace := a.b.Trace()
	// Failed lookups per operation, to match with crashes.
	failedByOp := map[int32][]string{}
	for _, acc := range trace {
		if acc.Ctx == mem.CtxElemLookup && strings.HasSuffix(acc.Desc, "-> null") {
			if id := quoted(acc.Desc); id != "" {
				failedByOp[int32(acc.Op)] = append(failedByOp[int32(acc.Op)], id)
			}
		}
	}
	for _, pe := range a.b.Errors {
		msg := pe.Err.Error()
		for _, id := range failedByOp[int32(pe.Op)] {
			a.crashedLookups[id] = true
		}
		if name, ok := cutSuffixWord(msg, " is not defined"); ok {
			a.badNames[name] = true
		}
		if name, ok := cutSuffixWord(msg, " is not a function"); ok {
			a.badNames[name] = true
		}
	}
	// Lost inputs: any text field whose final value differs from what the
	// eager user typed.
	for _, w := range a.b.Windows() {
		w.Doc.Root.Walk(func(n *dom.Node) {
			if n.IsFormField() && n.Value != "" && n.Value != typedMarker {
				// Only fields the user plausibly typed into.
				if n.Tag == "textarea" || n.Tag == "input" {
					a.lostInputs[nodeKey(n)] = true
				}
			}
		})
	}
	// Missed handlers: a handler-location write observed after the last
	// dispatch read of the same location's (target, event).
	lastFire := map[mem.Loc]int{}  // (el,e,0) slot → last fire index
	lastWrite := map[mem.Loc]int{} // handler loc → last registration index
	for i, acc := range trace {
		if acc.Loc.Kind != mem.Handler {
			continue
		}
		slot := mem.HandlerLoc(acc.Loc.Obj, acc.Loc.Name, 0)
		switch acc.Ctx {
		case mem.CtxHandlerFire:
			lastFire[slot] = i
		case mem.CtxHandlerAdd:
			lastWrite[acc.Loc] = i
		}
	}
	for locW, wi := range lastWrite {
		slot := mem.HandlerLoc(locW.Obj, locW.Name, 0)
		if fi, fired := lastFire[slot]; fired && wi > fi && report.DefaultSingleShot(locW.Name) {
			if n := a.nodeForSerial(locW.Obj); n != nil {
				a.missedHandlers[locW.Name+"|"+nodeKey(n)] = true
			}
		}
	}
}

// judge decides whether one race of the primary run is harmful given the
// adversarial observations. mainB resolves serials of the primary run.
func (a *adversary) judge(mainB *browser.Browser, r race.Report) (bool, string) {
	switch report.Classify(r) {
	case report.HTML:
		// Id-keyed element locations carry the id in Loc.Name.
		if r.Loc.Name != "" && a.crashedLookups[r.Loc.Name] {
			return true, fmt.Sprintf("lookup of #%s crashed under the adversarial schedule", r.Loc.Name)
		}
		return false, ""
	case report.Function:
		if a.badNames[r.Loc.Name] {
			return true, fmt.Sprintf("calling %s crashed under the adversarial schedule", r.Loc.Name)
		}
		return false, ""
	case report.Variable:
		if r.Loc.Name != "value" && r.Loc.Name != "checked" {
			return false, ""
		}
		n := nodeForSerialIn(mainB, r.Loc.Obj)
		if n != nil && a.lostInputs[nodeKey(n)] {
			return true, fmt.Sprintf("user input into %s was erased under the adversarial schedule", nodeKey(n))
		}
		return false, ""
	case report.EventDispatch:
		n := nodeForSerialIn(mainB, r.Loc.Obj)
		if n != nil && a.missedHandlers[r.Loc.Name+"|"+nodeKey(n)] {
			return true, fmt.Sprintf("%s handler on %s missed its event under the adversarial schedule", r.Loc.Name, nodeKey(n))
		}
		return false, ""
	}
	return false, ""
}

func (a *adversary) nodeForSerial(serial uint64) *dom.Node {
	return nodeForSerialIn(a.b, serial)
}

// nodeForSerialIn resolves a node serial to its node in any window of b.
func nodeForSerialIn(b *browser.Browser, serial uint64) *dom.Node {
	var found *dom.Node
	for _, w := range b.Windows() {
		w.Doc.Root.Walk(func(n *dom.Node) {
			if n.Serial == serial {
				found = n
			}
		})
		if found != nil {
			return found
		}
		if w.WindowNode().Serial == serial {
			return w.WindowNode()
		}
	}
	return found
}

// nodeKey identifies a node stably across runs: by id, else by tag and
// source URL, else by tag and position-free text.
func nodeKey(n *dom.Node) string {
	if id := n.ID(); id != "" {
		return "#" + id
	}
	if src := n.Attrs["src"]; src != "" {
		return n.Tag + "[" + src + "]"
	}
	return n.Tag
}

func quoted(s string) string {
	i := strings.IndexByte(s, '"')
	if i < 0 {
		return ""
	}
	j := strings.IndexByte(s[i+1:], '"')
	if j < 0 {
		return ""
	}
	return s[i+1 : i+1+j]
}

// cutSuffixWord extracts the last word before suffix, e.g.
// ("js: ReferenceError: doNextStep is not defined (line 3)",
// " is not defined") → "doNextStep".
func cutSuffixWord(s, suffix string) (string, bool) {
	i := strings.Index(s, suffix)
	if i < 0 {
		return "", false
	}
	head := s[:i]
	j := strings.LastIndexAny(head, " :")
	return head[j+1:], true
}

// ---- vector-clock replay (experiment E4) ----

// ReplayVC re-analyzes a recorded execution with the vector-clock
// happens-before representation, returning the detector's reports. The
// result must equal the graph-based reports (tests assert this); the bench
// compares analysis time.
func ReplayVC(res *Result) []race.Report {
	trace := res.Browser.Trace()
	return race.Replay(trace, race.NewPairwise(hb.NewClocks(res.Browser.HB), race.LocHint(len(trace)/4)))
}

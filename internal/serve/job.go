package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"
	"time"

	"webracer"
	"webracer/internal/fault"
	"webracer/internal/loader"
	"webracer/internal/sitegen"
)

// Request is the JSON body of the three POST endpoints. Exactly one of
// Site and Spec names the page under test; everything else tunes the run.
// Fields irrelevant to an endpoint are ignored there (Seeds and Mode
// belong to /v1/sweep, Plans and FaultSeed to /v1/faultsweep, Fault and
// Session to /v1/detect).
type Request struct {
	// Site inlines the site's resources (URL → body).
	Site *SiteSpec `json:"site,omitempty"`
	// Spec generates a synthetic site (internal/sitegen) instead of
	// inlining one — handy for load tests and demos.
	Spec *GenSpec `json:"spec,omitempty"`
	// Seed drives all simulated nondeterminism (default 1).
	Seed *int64 `json:"seed,omitempty"`
	// Entry is the page to load (default "index.html").
	Entry string `json:"entry,omitempty"`
	// Explore switches automatic exploration (default true).
	Explore *bool `json:"explore,omitempty"`
	// Exhaustive enables feedback-directed exploration rounds.
	Exhaustive bool `json:"exhaustive,omitempty"`
	// Filters applies the §5.3 report filters.
	Filters bool `json:"filters,omitempty"`
	// Detector names the algorithm: pairwise, pairwise-vc, accessset,
	// predictive or sampled. Absent means the server's configured default
	// tier (Config.DefaultDetector; pairwise out of the box). GET
	// /v1/detectors lists the accepted spellings.
	Detector string `json:"detector,omitempty"`
	// SampleRate is the sampled tier's location sampling rate in (0, 1].
	// Absent with the sampled detector means webracer.DefaultSampleRate;
	// setting it with an exact detector is a 400.
	SampleRate *float64 `json:"sampleRate,omitempty"`
	// TimeoutMS caps the run's wall-clock time. 0 (or absent) applies the
	// server default; positive values are clamped to the server maximum.
	TimeoutMS int64 `json:"timeoutMS,omitempty"`
	// Fault injects a deterministic network fault plan into the detect
	// run (see internal/fault).
	Fault *FaultSpec `json:"fault,omitempty"`
	// Session switches /v1/detect's response to the full exported
	// session (ops, happens-before edges, races) instead of the compact
	// report.
	Session bool `json:"session,omitempty"`
	// Seeds is /v1/sweep's schedule count (default 8).
	Seeds int `json:"seeds,omitempty"`
	// Mode selects /v1/sweep's strategy: "seeds" (default — N simulated
	// schedules, union of races) or "delay-one" (baseline plus one run
	// per resource with that resource made pathologically slow).
	Mode string `json:"mode,omitempty"`
	// Prune adds the HB-equivalence class summary to /v1/sweep's
	// response: every schedule executes with its own detector pass as
	// in the unpruned sweep, and is classified by its canonical trace
	// class. The sweep's result bytes are byte-identical to the unpruned
	// sweep's modulo the added classes field, for every detector.
	// Ignored by the other endpoints.
	Prune bool `json:"prune,omitempty"`
	// Plans is /v1/faultsweep's number of derived fault plans (default 6).
	Plans int `json:"plans,omitempty"`
	// FaultSeed is /v1/faultsweep's base seed for plan derivation
	// (default: the run seed).
	FaultSeed int64 `json:"faultSeed,omitempty"`
	// Async makes the POST return 202 with the job id immediately; poll
	// GET /v1/jobs/{id} for the result. Async does not change the job's
	// identity: a sync and an async submission of the same work coalesce.
	Async bool `json:"async,omitempty"`
}

// SiteSpec inlines a site: its resources keyed by URL, plus a display
// name used in reports.
type SiteSpec struct {
	// Name labels the site in reports (default "site").
	Name string `json:"name,omitempty"`
	// Resources maps URL → body; the entry page must be present.
	Resources map[string]string `json:"resources"`
}

// GenSpec asks the server to generate a synthetic site.
type GenSpec struct {
	// Kind picks the blueprint family: "corpus" (default —
	// sitegen.SpecFor), "stress" (sitegen.StressSpec), "fault"
	// (sitegen.FaultSpec) or "sched" (sitegen.SchedSpec, the
	// schedule-dependent corpus the predictive detector targets).
	Kind string `json:"kind,omitempty"`
	// Seed is the corpus seed (corpus kind only; default 1).
	Seed int64 `json:"seed,omitempty"`
	// Index selects the site within the family; it must not be negative.
	Index int `json:"index"`
}

// FaultSpec mirrors fault.Plan in JSON: per-shape probabilities plus
// forced per-URL overrides, all driven by the plan seed.
type FaultSpec struct {
	// Seed drives every injection decision.
	Seed int64 `json:"seed"`
	// Drop is the probability a fetch errors after its normal latency.
	Drop float64 `json:"drop,omitempty"`
	// Refuse is the probability a fetch fails immediately.
	Refuse float64 `json:"refuse,omitempty"`
	// Status is the probability a fetch returns an HTTP error status.
	Status float64 `json:"status,omitempty"`
	// Stall is the probability a fetch is delayed to StallMS.
	Stall float64 `json:"stall,omitempty"`
	// Truncate is the probability a body arrives truncated.
	Truncate float64 `json:"truncate,omitempty"`
	// StallMS is the stalled-arrival latency (0 means 30000 virtual ms).
	StallMS float64 `json:"stallMS,omitempty"`
	// PerURL forces a fault kind for specific URLs, by the names
	// fault.Kind.String prints ("none" protects a URL).
	PerURL map[string]string `json:"perURL,omitempty"`
}

// plan converts the spec to a fault.Plan.
func (fs *FaultSpec) plan() (fault.Plan, error) {
	p := fault.Plan{
		Seed:       fs.Seed,
		DropProb:   fs.Drop,
		FailProb:   fs.Refuse,
		StatusProb: fs.Status,
		StallProb:  fs.Stall,
		TruncProb:  fs.Truncate,
		StallMS:    fs.StallMS,
	}
	if len(fs.PerURL) > 0 {
		p.PerURL = make(map[string]fault.Kind, len(fs.PerURL))
		for url, name := range fs.PerURL {
			k, err := fault.ParseKind(name)
			if err != nil {
				return fault.Plan{}, err
			}
			p.PerURL[url] = k
		}
	}
	return p, nil
}

// jobKind names the endpoint family a job belongs to; it is part of the
// job's identity (a detect and a sweep of the same site never collide).
type jobKind string

// The three job kinds, one per POST endpoint.
const (
	kindDetect     jobKind = "detect"
	kindSweep      jobKind = "sweep"
	kindFaultSweep jobKind = "faultsweep"
)

// resolved is a request normalized to its effective inputs: the site, the
// fully defaulted webracer.Config and endpoint parameters, and the
// content-addressed key those inputs hash to. Two requests that differ
// only in spelling (an absent field vs. its default) resolve to the same
// key.
type resolved struct {
	kind    jobKind
	site    *loader.Site
	cfg     webracer.Config
	session bool
	seeds   int
	mode    string
	prune   bool
	plans   int
	fseed   int64
	async   bool
	key     string
	bk      bodyKey // the request bytes this was resolved from; zero when resolved directly
}

// resolve normalizes req for kind against the server's defaults and
// computes its cache key. Validation errors here become 400s — nothing
// invalid is ever enqueued.
func (s *Server) resolve(kind jobKind, req *Request) (*resolved, error) {
	r := &resolved{kind: kind, async: req.Async, session: req.Session && kind == kindDetect}

	site, err := resolveSite(req)
	if err != nil {
		return nil, err
	}
	r.site = site

	seed := int64(1)
	if req.Seed != nil {
		seed = *req.Seed
	}
	cfg := webracer.DefaultConfig(seed)
	if req.Explore != nil {
		cfg.Explore = *req.Explore
	}
	if req.Exhaustive {
		cfg.Explore, cfg.Exhaustive = true, true
	}
	cfg.Filters = req.Filters
	detName := req.Detector
	if detName == "" {
		detName = s.cfg.DefaultDetector
	}
	det, err := webracer.ParseDetector(detName)
	if err != nil {
		return nil, err
	}
	cfg.Detector = det
	if req.SampleRate != nil {
		cfg.SampleRate = *req.SampleRate
	}
	if cfg.Detector == webracer.DetectorSampled && cfg.SampleRate == 0 {
		// Pin the default rate explicitly so "sampled" and "sampled at the
		// default rate" resolve to the same cache key.
		cfg.SampleRate = webracer.DefaultSampleRate
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg.EntryURL = req.Entry
	if cfg.EntryURL == "" {
		cfg.EntryURL = "index.html"
	}
	if _, ok := site.Resources[cfg.EntryURL]; !ok {
		return nil, fmt.Errorf("entry page %q not in site", cfg.EntryURL)
	}
	cfg.RunTimeout = s.effectiveTimeout(req.TimeoutMS)
	if kind == kindDetect && req.Fault != nil {
		plan, err := req.Fault.plan()
		if err != nil {
			return nil, err
		}
		cfg.Fault = &plan
	}
	r.cfg = cfg

	switch kind {
	case kindSweep:
		r.seeds = req.Seeds
		if r.seeds < 1 {
			r.seeds = 8
		}
		switch req.Mode {
		case "", "seeds":
			r.mode = "seeds"
		case "delay-one":
			r.mode = "delay-one"
		default:
			return nil, fmt.Errorf("unknown sweep mode %q (want seeds or delay-one)", req.Mode)
		}
		r.prune = req.Prune
	case kindFaultSweep:
		r.plans = req.Plans
		if r.plans < 1 {
			r.plans = 6
		}
		r.fseed = req.FaultSeed
		if r.fseed == 0 {
			r.fseed = seed
		}
	}

	r.key = r.computeKey()
	return r, nil
}

// effectiveTimeout folds the request's wall budget with the server
// defaults: absent/zero applies DefaultTimeout, and MaxTimeout (when set)
// clamps everything.
func (s *Server) effectiveTimeout(ms int64) time.Duration {
	d := time.Duration(ms) * time.Millisecond
	if d <= 0 {
		d = s.cfg.DefaultTimeout
	}
	if s.cfg.MaxTimeout > 0 && d > s.cfg.MaxTimeout {
		d = s.cfg.MaxTimeout
	}
	return d
}

// resolveSite materializes the request's site: inline resources or a
// generated blueprint.
func resolveSite(req *Request) (*loader.Site, error) {
	switch {
	case req.Site != nil && req.Spec != nil:
		return nil, fmt.Errorf("request names both site and spec; pick one")
	case req.Site != nil:
		if len(req.Site.Resources) == 0 {
			return nil, fmt.Errorf("site has no resources")
		}
		name := req.Site.Name
		if name == "" {
			name = "site"
		}
		site := loader.NewSite(name)
		for url, body := range req.Site.Resources {
			site.Add(url, body)
		}
		return site, nil
	case req.Spec != nil:
		g := req.Spec
		if g.Index < 0 {
			return nil, fmt.Errorf("spec index %d is negative", g.Index)
		}
		switch g.Kind {
		case "", "corpus":
			seed := g.Seed
			if seed == 0 {
				seed = 1
			}
			return sitegen.Generate(sitegen.SpecFor(seed, g.Index)), nil
		case "stress":
			return sitegen.Generate(sitegen.StressSpec(g.Index)), nil
		case "fault":
			return sitegen.Generate(sitegen.FaultSpec(g.Index)), nil
		case "sched":
			return sitegen.Generate(sitegen.SchedSpec(g.Index)), nil
		default:
			return nil, fmt.Errorf("unknown spec kind %q (want corpus, stress, fault or sched)", g.Kind)
		}
	default:
		return nil, fmt.Errorf("request names neither site nor spec")
	}
}

// keySpec is the canonical identity of a job, hashed into its key. Every
// field is an *input* the run's bytes depend on — see DESIGN.md's
// determinism contract. The version prefix retires all keys at once
// whenever the response encoding changes.
type keySpec struct {
	V          string `json:"v"`
	Kind       string `json:"kind"`
	SiteName   string `json:"siteName"`
	SiteHash   string `json:"siteHash"`
	Seed       int64  `json:"seed"`
	Entry      string `json:"entry"`
	Explore    bool   `json:"explore"`
	Exhaustive bool   `json:"exhaustive"`
	Filters    bool   `json:"filters"`
	Detector   string `json:"detector"`
	// SampleRate is non-zero only for the sampled tier (resolve pins the
	// default rate), so every pre-tier key hashes exactly as before.
	SampleRate float64 `json:"sampleRate,omitempty"`
	TimeoutMS  int64   `json:"timeoutMS"`
	Fault      string  `json:"fault,omitempty"`
	Session    bool    `json:"session,omitempty"`
	Seeds      int     `json:"seeds,omitempty"`
	Mode       string  `json:"mode,omitempty"`
	// Prune is set only for pruned sweep jobs (omitempty, like
	// SampleRate), so every pre-existing key hashes exactly as before. A
	// pruned and an unpruned sweep of the same inputs are distinct jobs:
	// their response bodies differ (the classes field).
	Prune     bool  `json:"prune,omitempty"`
	Plans     int   `json:"plans,omitempty"`
	FaultSeed int64 `json:"faultSeed,omitempty"`
}

// keyVersion retires every cached result when the response encoding or
// key derivation changes incompatibly.
const keyVersion = "webracerd/1"

// computeKey hashes the resolved inputs into the job's content-addressed
// identity: SHA-256 over the canonical keySpec JSON, site content included
// via siteHash. The key doubles as the job id and the cache key; it is
// what makes identical requests coalesce and repeat requests hit cache.
func (r *resolved) computeKey() string {
	spec := keySpec{
		V:          keyVersion,
		Kind:       string(r.kind),
		SiteName:   r.site.Name,
		SiteHash:   siteHash(r.site),
		Seed:       r.cfg.Seed,
		Entry:      r.cfg.EntryURL,
		Explore:    r.cfg.Explore,
		Exhaustive: r.cfg.Exhaustive,
		Filters:    r.cfg.Filters,
		Detector:   r.cfg.Detector.String(),
		SampleRate: r.cfg.SampleRate,
		TimeoutMS:  r.cfg.RunTimeout.Milliseconds(),
		Session:    r.session,
		Seeds:      r.seeds,
		Mode:       r.mode,
		Prune:      r.prune,
		Plans:      r.plans,
		FaultSeed:  r.fseed,
	}
	if r.cfg.Fault != nil {
		spec.Fault = r.cfg.Fault.Label()
	}
	blob, err := json.Marshal(spec)
	if err != nil {
		// keySpec is all plain values; Marshal cannot fail.
		panic(err)
	}
	sum := sha256.Sum256(blob)
	return hex.EncodeToString(sum[:])
}

// siteHash canonically hashes a site's content: URLs in sorted order,
// every string length-prefixed so boundaries cannot alias. Two sites with
// the same resources hash identically no matter how they were supplied —
// the content-addressed half of the cache key.
func siteHash(site *loader.Site) string {
	urls := make([]string, 0, len(site.Resources))
	for url := range site.Resources {
		urls = append(urls, url)
	}
	sort.Strings(urls)
	h := sha256.New()
	for _, url := range urls {
		fmt.Fprintf(h, "%d:%s%d:%s", len(url), url, len(site.Resources[url]), site.Resources[url])
	}
	return hex.EncodeToString(h.Sum(nil))
}

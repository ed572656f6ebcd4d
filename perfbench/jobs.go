package main

import (
	"encoding/json"
	"fmt"
	"time"

	"webracer"
	"webracer/internal/loader"
	"webracer/internal/serve"
	"webracer/internal/sitegen"
)

// page is one generated site, with its inline request encoding
// ({"name":…,"resources":{…}}) prepared once so that building a request
// body costs a copy, not a JSON encode of the whole page.
type page struct {
	site *loader.Site
	json []byte
}

// newPage generates the site for spec.
func newPage(spec sitegen.Spec) *page {
	site := sitegen.Generate(spec)
	blob, err := json.Marshal(serve.SiteSpec{Name: site.Name, Resources: site.Resources})
	if err != nil {
		// A site is a name and a string map; encoding it cannot fail.
		panic(err)
	}
	return &page{site: site, json: blob}
}

// job is one request the benchmark sends: the endpoint, the inline page
// and the run parameters. Fields left zero are omitted from the request,
// so the service applies its own defaults.
type job struct {
	endpoint string // "detect", "sweep" or "faultsweep"
	page     *page
	seed     int64
	detector string // "" means the service default (pairwise)
	seeds    int    // sweep: schedule count
	mode     string // sweep: "" (seeds) or "delay-one"
	prune    bool   // sweep: HB-equivalence pruning
	plans    int    // faultsweep: plan count
}

// path is the job's endpoint path.
func (j *job) path() string { return "/v1/" + j.endpoint }

// body encodes the request: the small fields, then the prepared page.
func (j *job) body() []byte {
	b := make([]byte, 0, len(j.page.json)+128)
	b = fmt.Appendf(b, `{"seed":%d`, j.seed)
	if j.detector != "" {
		b = fmt.Appendf(b, `,"detector":%q`, j.detector)
	}
	if j.seeds > 0 {
		b = fmt.Appendf(b, `,"seeds":%d`, j.seeds)
	}
	if j.mode != "" {
		b = fmt.Appendf(b, `,"mode":%q`, j.mode)
	}
	if j.prune {
		b = append(b, `,"prune":true`...)
	}
	if j.plans > 0 {
		b = fmt.Appendf(b, `,"plans":%d`, j.plans)
	}
	b = append(b, `,"site":`...)
	b = append(b, j.page.json...)
	return append(b, '}')
}

// serviceTimeout is webracerd's default per-job wall budget, which the
// service folds into every job's configuration.
const serviceTimeout = 30 * time.Second

// config is the library configuration the service resolves the job to,
// so a library call on it computes exactly what the service computed.
func (j *job) config() webracer.Config {
	cfg := webracer.DefaultConfig(j.seed)
	det, err := webracer.ParseDetector(j.detector)
	if err != nil {
		// Workloads only use the library's own detector spellings.
		panic(err)
	}
	cfg.Detector = det
	if det == webracer.DetectorSampled {
		cfg.SampleRate = webracer.DefaultSampleRate
	}
	cfg.EntryURL = "index.html"
	cfg.RunTimeout = serviceTimeout
	return cfg
}

package serve

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"webracer"
	"webracer/internal/sitegen"
)

// TestDetectorsEndpoint pins the capability listing: every kind the
// library declares, in order, with its tier and the service default.
func TestDetectorsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	resp, b := get(t, ts, "/v1/detectors")
	if resp.StatusCode != 200 {
		t.Fatalf("GET /v1/detectors: %d %s", resp.StatusCode, b)
	}
	var dr DetectorsResponse
	if err := json.Unmarshal(b, &dr); err != nil {
		t.Fatalf("parse: %v", err)
	}
	if dr.Default != "pairwise" || dr.Escalation != "pairwise-vc" {
		t.Fatalf("default %q escalation %q, want pairwise / pairwise-vc", dr.Default, dr.Escalation)
	}
	want := map[string]string{
		"pairwise": "exact", "pairwise-vc": "exact", "accessset": "exact",
		"predictive": "exact", "sampled": "sampled",
	}
	if len(dr.Detectors) != len(want) {
		t.Fatalf("listed %d detectors, want %d: %+v", len(dr.Detectors), len(want), dr.Detectors)
	}
	for _, d := range dr.Detectors {
		if want[d.Name] != d.Tier {
			t.Errorf("detector %q: tier %q, want %q", d.Name, d.Tier, want[d.Name])
		}
		if d.Default != (d.Name == "pairwise") {
			t.Errorf("detector %q: default = %v", d.Name, d.Default)
		}
	}
}

// TestSampledDetect drives the tier end-to-end over HTTP: a racy site at
// rate 1 escalates, reports the exact races, annotates the response with
// the tier's accounting, and repeats as a byte-identical cache hit.
func TestSampledDetect(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	req := `{"site":` + racySite + `,"seed":1,"detector":"sampled","sampleRate":1}`

	resp, cold := post(t, ts, "/v1/detect", req)
	if resp.StatusCode != 200 {
		t.Fatalf("cold POST: %d %s", resp.StatusCode, cold)
	}
	var dr DetectResponse
	if err := json.Unmarshal(cold, &dr); err != nil {
		t.Fatal(err)
	}
	if dr.Detector != "sampled" || dr.SampleRate != 1 {
		t.Fatalf("detector %q rate %v, want sampled at 1", dr.Detector, dr.SampleRate)
	}
	if !dr.Escalated || dr.SampledHits == 0 || len(dr.Races) == 0 {
		t.Fatalf("racy site at rate 1 should escalate with hits: %+v", dr)
	}
	if got := metric(t, ts, "serve.jobs.escalated"); got != 1 {
		t.Fatalf("serve.jobs.escalated = %d, want 1", got)
	}

	resp2, warm := post(t, ts, "/v1/detect", req)
	if h := resp2.Header.Get("X-Webracer-Cache"); h != "hit" {
		t.Fatalf("repeat sampled request: X-Webracer-Cache = %q, want hit", h)
	}
	if !bytes.Equal(cold, warm) {
		t.Fatal("cached sampled response differs from cold run")
	}
}

// TestSampledDefaultRateSharesKey: "sampled" with the rate unset and
// "sampled" at the spelled-out default rate are the same job.
func TestSampledDefaultRateSharesKey(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	_, cold := post(t, ts, "/v1/detect", `{"site":`+racySite+`,"detector":"sampled"}`)
	resp, warm := post(t, ts, "/v1/detect",
		`{"site":`+racySite+`,"detector":"sampled","sampleRate":0.25}`)
	if h := resp.Header.Get("X-Webracer-Cache"); h != "hit" {
		t.Fatalf("spelled-out default rate missed the cache (%q)", h)
	}
	if !bytes.Equal(cold, warm) {
		t.Fatal("bodies differ across equivalent sampled requests")
	}
}

// TestEscalationCrossPopulatesExactKey is the tiering economy at work:
// an escalated sampled job already paid for the exact run, so the exact
// request that follows is a cache hit — byte-identical to what a cold
// exact run on a fresh server produces.
func TestEscalationCrossPopulatesExactKey(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	_, sampled := post(t, ts, "/v1/detect",
		`{"site":`+racySite+`,"seed":1,"detector":"sampled","sampleRate":1}`)
	var dr DetectResponse
	if err := json.Unmarshal(sampled, &dr); err != nil {
		t.Fatal(err)
	}
	if !dr.Escalated {
		t.Fatalf("sampled run did not escalate; cross-population untestable: %+v", dr)
	}

	exactReq := `{"site":` + racySite + `,"seed":1,"detector":"pairwise-vc"}`
	resp, warm := post(t, ts, "/v1/detect", exactReq)
	if h := resp.Header.Get("X-Webracer-Cache"); h != "hit" {
		t.Fatalf("exact request after escalation: X-Webracer-Cache = %q, want hit", h)
	}

	_, fresh := newTestServer(t, Config{Workers: 1})
	respCold, cold := post(t, fresh, "/v1/detect", exactReq)
	if h := respCold.Header.Get("X-Webracer-Cache"); h != "miss" {
		t.Fatalf("fresh server exact request: X-Webracer-Cache = %q, want miss", h)
	}
	if !bytes.Equal(warm, cold) {
		t.Fatalf("cross-populated exact body differs from a cold exact run:\nwarm: %s\ncold: %s", warm, cold)
	}
}

// TestDefaultDetectorSampled: with the service configured for the cheap
// tier, bare requests run sampled and coalesce with explicit sampled
// requests.
func TestDefaultDetectorSampled(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, DefaultDetector: "sampled"})

	resp, b := get(t, ts, "/v1/detectors")
	if resp.StatusCode != 200 {
		t.Fatalf("GET /v1/detectors: %d", resp.StatusCode)
	}
	var caps DetectorsResponse
	if err := json.Unmarshal(b, &caps); err != nil {
		t.Fatal(err)
	}
	if caps.Default != "sampled" {
		t.Fatalf("capability default %q, want sampled", caps.Default)
	}

	_, cold := post(t, ts, "/v1/detect", `{"site":`+racySite+`,"seed":1}`)
	var dr DetectResponse
	if err := json.Unmarshal(cold, &dr); err != nil {
		t.Fatal(err)
	}
	if dr.Detector != "sampled" || dr.SampleRate == 0 {
		t.Fatalf("bare request on a sampled-default server ran %q at rate %v", dr.Detector, dr.SampleRate)
	}
	resp2, warm := post(t, ts, "/v1/detect", `{"site":`+racySite+`,"seed":1,"detector":"sampled"}`)
	if h := resp2.Header.Get("X-Webracer-Cache"); h != "hit" {
		t.Fatalf("explicit sampled vs default-tier request did not coalesce (%q)", h)
	}
	if !bytes.Equal(cold, warm) {
		t.Fatal("default-tier and explicit sampled bodies differ")
	}
}

// TestSampledBadRequests maps the tier's validation errors to 400s, and
// a misconfigured default detector to a startup panic.
func TestSampledBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	cases := []struct {
		name, body, wantSub string
	}{
		{"rate above 1", `{"site":` + racySite + `,"detector":"sampled","sampleRate":1.5}`, "invalid sample rate"},
		{"negative rate", `{"site":` + racySite + `,"detector":"sampled","sampleRate":-0.5}`, "invalid sample rate"},
		{"rate on exact detector", `{"site":` + racySite + `,"detector":"pairwise-vc","sampleRate":0.5}`, "does not sample"},
		{"sampled exhaustive", `{"site":` + racySite + `,"detector":"sampled","exhaustive":true}`, "exhaustive"},
		{"unknown detector", `{"site":` + racySite + `,"detector":"quantum"}`, "sampled"},
	}
	for _, tc := range cases {
		resp, b := post(t, ts, "/v1/detect", tc.body)
		if resp.StatusCode != 400 {
			t.Errorf("%s: status %d, want 400 (%s)", tc.name, resp.StatusCode, b)
		}
		if !strings.Contains(string(b), tc.wantSub) {
			t.Errorf("%s: body %q does not mention %q", tc.name, b, tc.wantSub)
		}
	}

	defer func() {
		if recover() == nil {
			t.Error("NewServer with an unknown DefaultDetector did not panic")
		}
	}()
	NewServer(Config{DefaultDetector: "quantum"})
}

// TestEscalationInterruptedNotCached: a sampled job whose run trips a
// safety bound after the cheap detector hit still escalates, but its
// response depends on the bound, not the key's inputs alone: it is
// neither cached nor cross-populated under the exact detector's key.
func TestEscalationInterruptedNotCached(t *testing.T) {
	site := sitegen.Generate(sitegen.SpecFor(1, 1))
	cfg := webracer.DefaultConfig(7)
	base := webracer.RunConfig(site, cfg)
	cfg.Browser.MaxVirtualTime = base.Browser.Clock() / 2
	cfg.Detector = webracer.DetectorSampled
	cfg.SampleRate = 1
	s, _ := newTestServer(t, Config{Workers: 1})
	body, cacheable, err := s.executeDetect(&resolved{kind: kindDetect, site: site, cfg: cfg, key: "budget"})
	if err != nil {
		t.Fatal(err)
	}
	var dr DetectResponse
	if err := json.Unmarshal(body, &dr); err != nil {
		t.Fatal(err)
	}
	if !dr.Escalated || dr.Interrupted == "" {
		t.Fatalf("want an interrupted, escalated job: escalated=%v interrupted=%q", dr.Escalated, dr.Interrupted)
	}
	if cacheable {
		t.Error("interrupted escalated job is cacheable")
	}
	if n := s.cache.Len(); n != 0 {
		t.Errorf("cache holds %d entries after an interrupted job, want 0 (no cross-population)", n)
	}
}

package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"time"
)

// goldenSteps is GoldenWorkload's fixed sequence: cold detects, a warm
// repeat, both sweep modes, a fault sweep, the capability endpoint, and
// the two deterministic error paths (400 bad request, 413 oversized body
// at the workload's 16 KiB limit). A job-status read for the first job
// follows them.
var goldenSteps = []struct {
	method, path, body string
	want               int
}{
	{http.MethodPost, "/v1/detect", `{"spec":{"kind":"corpus","index":1},"seed":7}`, 200},
	{http.MethodPost, "/v1/detect", `{"spec":{"kind":"corpus","index":1},"seed":7}`, 200},
	{http.MethodPost, "/v1/detect", `{"spec":{"kind":"corpus","index":2},"seed":7}`, 200},
	{http.MethodPost, "/v1/sweep", `{"spec":{"kind":"corpus","index":1},"seeds":3}`, 200},
	{http.MethodPost, "/v1/sweep", `{"spec":{"kind":"corpus","index":2},"mode":"delay-one"}`, 200},
	{http.MethodPost, "/v1/faultsweep", `{"spec":{"kind":"fault","index":1},"plans":2}`, 200},
	{http.MethodGet, "/v1/detectors", "", 200},
	{http.MethodPost, "/v1/detect", `{"spec":`, 400},
	{http.MethodPost, "/v1/detect", `{"pad":"` + strings.Repeat("x", 32<<10) + `"}`, 413},
}

// GoldenWorkload boots a Server with the given worker count, drives the
// fixed golden request sequence through its full HTTP surface
// (middleware included), and returns the stable metrics export
// (obs.Metrics.WriteStableJSON) — counters plus every step-unit
// histogram, wall-time histograms excluded.
//
// The sequence is serial and synchronous, so every step-unit quantity —
// response bytes, executed operations, queue depths, cache counters —
// is a pure function of the request list: the returned bytes are
// identical for any worker count, which is exactly what the metricsdiff
// gate and TestGoldenMetricsServe pin. Changing the service's metrics
// (or the detector pipeline's operation counts) shows up here as a
// golden diff, never as silent drift.
func GoldenWorkload(workers int) ([]byte, error) {
	s := NewServer(Config{Workers: workers, MaxBodyBytes: 16 << 10})
	defer s.Close()
	h := s.Handler()

	expect := func(method, path, body string, want int) (*httptest.ResponseRecorder, error) {
		hr := httptest.NewRequest(method, path, strings.NewReader(body))
		if body != "" {
			hr.Header.Set("Content-Type", "application/json")
		}
		w := httptest.NewRecorder()
		h.ServeHTTP(w, hr)
		if w.Code != want {
			return nil, fmt.Errorf("golden workload: %s %s = %d, want %d: %s",
				method, path, w.Code, want, w.Body.String())
		}
		return w, nil
	}

	first, err := expect(goldenSteps[0].method, goldenSteps[0].path, goldenSteps[0].body, goldenSteps[0].want)
	if err != nil {
		return nil, err
	}
	for _, st := range goldenSteps[1:] {
		if _, err := expect(st.method, st.path, st.body, st.want); err != nil {
			return nil, err
		}
	}
	// Job-status read for the first job's content-addressed id.
	var idOnly struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(first.Body.Bytes(), &idOnly); err != nil || idOnly.ID == "" {
		return nil, fmt.Errorf("golden workload: first response has no id: %v", err)
	}
	if _, err := expect(http.MethodGet, "/v1/jobs/"+idOnly.ID, "", 200); err != nil {
		return nil, err
	}

	// Drain before export so every job's post-response bookkeeping has
	// landed; the export itself excludes all wall-time histograms.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		return nil, fmt.Errorf("golden workload: drain: %w", err)
	}
	var buf bytes.Buffer
	if err := s.Metrics().WriteStableJSON(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

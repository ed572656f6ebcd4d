package webracer

import (
	"bytes"
	"encoding/json"
	"testing"

	"webracer/internal/fault"
	"webracer/internal/loader"
	"webracer/internal/obs"
	"webracer/internal/sitegen"
)

// traceConfig is the seed-1 default run with virtual-time tracing on.
var traceConfig = Config{Seed: 1, Explore: true, TimeTrace: true}

// traceOf runs site under traceConfig and returns the trace.
func traceOf(t *testing.T, site *loader.Site) *obs.TraceLog {
	t.Helper()
	res := RunConfig(site, traceConfig)
	if res.Trace == nil {
		t.Fatal("TimeTrace set but Result.Trace is nil")
	}
	return res.Trace
}

// TestTraceFig1Shape checks the paper's Fig. 1 trace has the span variety
// the acceptance criterion demands (≥4 categories) and that the JSON is a
// well-formed Chrome trace_event file.
func TestTraceFig1Shape(t *testing.T) {
	tr := traceOf(t, sitegen.Fig1())

	cats := map[string]bool{}
	phases := map[string]bool{}
	for _, ev := range tr.Events() {
		if ev.Cat != "" {
			cats[ev.Cat] = true
		}
		phases[ev.Ph] = true
	}
	if len(cats) < 4 {
		t.Errorf("fig1 trace has %d categories (%v), want >= 4", len(cats), cats)
	}
	for _, want := range []string{"task", "parse", "script", "fetch"} {
		if !cats[want] {
			t.Errorf("fig1 trace missing category %q (have %v)", want, cats)
		}
	}
	for _, ph := range []string{"M", "X", "b", "e"} {
		if !phases[ph] {
			t.Errorf("fig1 trace missing phase %q", ph)
		}
	}

	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var file struct {
		TraceEvents     []map[string]any `json:"traceEvents"`
		DisplayTimeUnit string           `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &file); err != nil {
		t.Fatalf("trace JSON does not parse: %v", err)
	}
	if file.DisplayTimeUnit != "ms" || len(file.TraceEvents) != len(tr.Events()) {
		t.Fatalf("trace file shape wrong: unit=%q events=%d want %d",
			file.DisplayTimeUnit, len(file.TraceEvents), len(tr.Events()))
	}
	for _, ev := range file.TraceEvents {
		for _, key := range []string{"name", "ph", "pid", "tid"} {
			if _, ok := ev[key]; !ok {
				t.Fatalf("trace event missing required key %q: %v", key, ev)
			}
		}
	}
}

// TestTraceFig4HasTimerSpans checks the Fig. 4 page (setTimeout in an
// iframe onload) produces timer category spans with matched async pairs.
func TestTraceFig4HasTimerSpans(t *testing.T) {
	tr := traceOf(t, sitegen.Fig4())
	begins, ends := map[string]bool{}, map[string]bool{}
	for _, ev := range tr.Events() {
		if ev.Cat != "timer" {
			continue
		}
		switch ev.Ph {
		case "b":
			begins[ev.ID] = true
		case "e":
			ends[ev.ID] = true
		}
	}
	if len(begins) == 0 {
		t.Fatal("fig4 trace has no timer async spans")
	}
	for id := range begins {
		if !ends[id] {
			t.Errorf("timer span %q opened but never closed", id)
		}
	}
}

// TestTraceByteStability renders the same run's trace twice (and a second
// identical run) — all exports must be byte-identical.
func TestTraceByteStability(t *testing.T) {
	render := func(tr *obs.TraceLog) []byte {
		var buf bytes.Buffer
		if err := tr.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	tr1 := traceOf(t, sitegen.Fig1())
	tr2 := traceOf(t, sitegen.Fig1())
	a, b := render(tr1), render(tr2)
	if !bytes.Equal(a, b) {
		t.Fatal("two identical runs produced different trace bytes")
	}
	if !bytes.Equal(render(tr1), a) {
		t.Fatal("re-rendering one trace produced different bytes")
	}
}

// TestTraceFaultInstants checks injected faults appear as instant events
// at their virtual time.
func TestTraceFaultInstants(t *testing.T) {
	cfg := traceConfig
	cfg.Fault = &fault.Plan{Seed: 5, PerURL: map[string]fault.Kind{"a.html": fault.KindDrop}}
	res := RunConfig(sitegen.Fig1(), cfg)
	instants := 0
	for _, ev := range res.Trace.Events() {
		if ev.Ph == "i" && ev.Cat == "fault" {
			instants++
			if ev.S != "p" {
				t.Errorf("fault instant missing process scope: %+v", ev)
			}
		}
	}
	if instants == 0 {
		t.Fatal("fault plan injected nothing into the trace")
	}
	if len(res.FaultEvents) != instants {
		t.Errorf("trace has %d fault instants, injector recorded %d", instants, len(res.FaultEvents))
	}
}

package webracer

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"webracer/internal/fault"
	"webracer/internal/sitegen"
)

func sweepBytes(t *testing.T, s *FaultSweep) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := s.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestFaultSweepDeterministic: the same (site, seed, plans) must marshal
// byte-identically at every worker count and across repeat runs — the
// property that makes fault sweeps golden-testable.
func TestFaultSweepDeterministic(t *testing.T) {
	site := sitegen.Generate(sitegen.FaultSpec(0))
	cfg := DefaultConfig(3)
	serial, err := RunFaultSweep(site, cfg, FaultSweepConfig{}, ParallelConfig{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	want := sweepBytes(t, serial)
	for _, workers := range []int{1, 4, 8} {
		sweep, err := RunFaultSweep(site, cfg, FaultSweepConfig{}, ParallelConfig{Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if got := sweepBytes(t, sweep); !bytes.Equal(got, want) {
			t.Fatalf("workers=%d: sweep differs from serial:\n got %s\nwant %s",
				workers, got, want)
		}
	}
	if len(serial.Runs) != 1+6 {
		t.Errorf("default sweep ran %d units, want baseline + 6 plans", len(serial.Runs))
	}
	if serial.Runs[0].Plan != "baseline" {
		t.Errorf("first run is %q, want the baseline", serial.Runs[0].Plan)
	}
}

// TestFaultSweepExposesRace: the fragile-image pattern races only on the
// error path — no fault-free schedule reaches the onerror handler, so the
// baseline is clean on that location and a drop plan exposes it. This is
// the reason the injector exists.
func TestFaultSweepExposesRace(t *testing.T) {
	site := sitegen.Generate(sitegen.FaultSpec(0))
	cfg := DefaultConfig(3)
	plan := fault.Plan{Seed: 11, PerURL: map[string]fault.Kind{"fragile0.png": fault.KindDrop}}
	sweep, err := RunFaultSweep(site, cfg,
		FaultSweepConfig{Plans: 1, PlanFor: func(int) fault.Plan { return plan }},
		ParallelConfig{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, loc := range sweep.Runs[0].Races {
		if strings.Contains(loc, "imgFallback0") {
			t.Fatalf("fault-free baseline already races on %s", loc)
		}
	}
	found := false
	for _, loc := range sweep.NewlyExposed {
		if strings.Contains(loc, "imgFallback0") {
			found = true
		}
	}
	if !found {
		t.Errorf("drop plan did not expose the imgFallback0 race; newly exposed: %v, plan run: %+v",
			sweep.NewlyExposed, sweep.Runs[1])
	}
	if sweep.Runs[1].Faults == 0 {
		t.Error("plan run recorded no injected faults")
	}
}

// TestFaultPlanRunDeterministic: a single faulted run replays byte for
// byte — same (site, seed, plan) ⇒ identical exported session.
func TestFaultPlanRunDeterministic(t *testing.T) {
	site := sitegen.Generate(sitegen.FaultSpec(1))
	plan := fault.Plan{ // aggressive mix: every fault shape in play
		Seed: 9, DropProb: 0.2, StatusProb: 0.2, StallProb: 0.2, TruncProb: 0.2,
		PerURL: map[string]fault.Kind{"index.html": fault.KindNone},
	}
	cfg := DefaultConfig(4)
	cfg.Fault = &plan
	a := RunConfig(site, cfg)
	b := RunConfig(site, cfg)
	ab, bb := exportBytes(t, a, 4), exportBytes(t, b, 4)
	if !bytes.Equal(ab, bb) {
		t.Fatalf("faulted run not replayable: %d vs %d bytes", len(ab), len(bb))
	}
	if len(a.FaultEvents) == 0 {
		t.Error("mixed plan injected nothing")
	}
	for _, r := range a.Reports {
		if r.Env == "" {
			t.Errorf("report on %s missing fault-plan env annotation", r.Loc)
		}
	}
}

// TestFaultSweepPanicSkipped: a worker panic skips that one unit and the
// sweep still completes without error — one bad run must not take down
// the battery.
func TestFaultSweepPanicSkipped(t *testing.T) {
	site := sitegen.Generate(sitegen.FaultSpec(0))
	cfg := DefaultConfig(3)
	fc := FaultSweepConfig{
		Plans: 3,
		OnRun: func(i int, plan fault.Plan) {
			if i == 2 {
				panic("injected worker failure")
			}
		},
	}
	for _, workers := range []int{1, 4} {
		sweep, err := RunFaultSweep(site, cfg, fc, ParallelConfig{Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: sweep failed outright: %v", workers, err)
		}
		if len(sweep.Skipped) != 1 {
			t.Fatalf("workers=%d: skipped %v, want exactly the panicked unit", workers, sweep.Skipped)
		}
		if !strings.Contains(sweep.Skipped[0], "panic: injected worker failure") {
			t.Errorf("workers=%d: skipped entry %q does not name the panic", workers, sweep.Skipped[0])
		}
		if len(sweep.Runs) != 3 { // baseline + plans 1 and 3; plan 2 panicked
			t.Errorf("workers=%d: %d runs delivered, want 3", workers, len(sweep.Runs))
		}
		if sweep.Runs[0].Plan != "baseline" {
			t.Errorf("workers=%d: baseline lost after panic: %+v", workers, sweep.Runs)
		}
	}
}

// TestFaultSweepTimeoutDegraded: a tripped per-run wall-clock budget
// degrades the run (partial results kept, reason recorded) and the sweep
// still completes with no error.
func TestFaultSweepTimeoutDegraded(t *testing.T) {
	site := sitegen.Generate(sitegen.FaultSpec(0))
	cfg := DefaultConfig(3)
	cfg.RunTimeout = time.Nanosecond // every run trips it at the first check
	sweep, err := RunFaultSweep(site, cfg, FaultSweepConfig{Plans: 2}, ParallelConfig{Workers: 2})
	if err != nil {
		t.Fatalf("sweep failed outright: %v", err)
	}
	if len(sweep.Degraded) == 0 {
		t.Fatal("no run reported degraded under a 1ns wall budget")
	}
	if !strings.Contains(sweep.Degraded[0], "wall-clock budget") {
		t.Errorf("degraded entry %q does not name the wall-clock budget", sweep.Degraded[0])
	}
	if len(sweep.Runs) != 3 {
		t.Errorf("%d runs delivered, want all 3 despite degradation", len(sweep.Runs))
	}
	for _, run := range sweep.Runs {
		if run.Interrupted == "" {
			t.Errorf("run %s not marked interrupted", run.Plan)
		}
	}
}

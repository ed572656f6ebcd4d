package webracer

import (
	"bytes"
	"context"
	"reflect"
	"testing"

	"webracer/internal/sitegen"
)

// exportBytes serializes one result the way the archival workflow does,
// so determinism is asserted on the full observable session: ops, edges,
// races, errors, console, counts, exploration stats.
func exportBytes(t *testing.T, res *Result, seed int64) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := Export(res, seed, nil, false).WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestRunCorpusParallelDeterministic: the sharded corpus sweep must
// produce byte-identical session exports per site at every worker count
// (Workers 1, the serial path, against 4 and 8).
func TestRunCorpusParallelDeterministic(t *testing.T) {
	const n = 12
	cfg := DefaultConfig(1)
	serial, err := RunCorpusParallel(n, corpusGen(1), cfg, ParallelConfig{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	want := make([][]byte, n)
	for i, res := range serial {
		want[i] = exportBytes(t, res, cfg.Seed+int64(i)*101)
	}
	for _, workers := range []int{1, 4, 8} {
		results, err := RunCorpusParallel(n, corpusGen(1), cfg, ParallelConfig{Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, res := range results {
			got := exportBytes(t, res, cfg.Seed+int64(i)*101)
			if !bytes.Equal(got, want[i]) {
				t.Fatalf("workers=%d: site %d session differs from serial (%d vs %d bytes)",
					workers, i, len(got), len(want[i]))
			}
		}
	}
}

// TestRunSeedsParallelDeterministic: the seed sweep aggregate must be
// identical at every worker count (Workers 1, the serial path, against 4
// and 8).
func TestRunSeedsParallelDeterministic(t *testing.T) {
	site := sitegen.Generate(sitegen.SpecFor(1, 40))
	cfg := DefaultConfig(1)
	serial, err := RunSeedsParallel(site, cfg, 6, ParallelConfig{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4, 8} {
		sweep, err := RunSeedsParallel(site, cfg, 6, ParallelConfig{Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !reflect.DeepEqual(sweep, serial) {
			t.Fatalf("workers=%d: seed sweep differs from serial:\n got %+v\nwant %+v",
				workers, sweep, serial)
		}
	}
}

// TestExploreSchedulesParallelDeterministic: the delay-one schedule sweep
// must aggregate identically at every worker count, including the
// baseline's full exported session (Workers 1, the serial path, against
// 4 and 8).
func TestExploreSchedulesParallelDeterministic(t *testing.T) {
	site := sitegen.Generate(sitegen.SpecFor(1, 7))
	cfg := DefaultConfig(1)
	serial, err := ExploreSchedulesParallel(site, cfg, ParallelConfig{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	serialBase := exportBytes(t, serial.Baseline, cfg.Seed)
	for _, workers := range []int{1, 4, 8} {
		sweep, err := ExploreSchedulesParallel(site, cfg, ParallelConfig{Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if sweep.Runs != serial.Runs {
			t.Fatalf("workers=%d: runs %d, want %d", workers, sweep.Runs, serial.Runs)
		}
		if !reflect.DeepEqual(sweep.ByLocation, serial.ByLocation) {
			t.Fatalf("workers=%d: ByLocation differs from serial", workers)
		}
		if !reflect.DeepEqual(sweep.NewlyExposed, serial.NewlyExposed) {
			t.Fatalf("workers=%d: NewlyExposed differs from serial", workers)
		}
		if !reflect.DeepEqual(sweep.Reports, serial.Reports) {
			t.Fatalf("workers=%d: Reports differ from serial", workers)
		}
		if got := exportBytes(t, sweep.Baseline, cfg.Seed); !bytes.Equal(got, serialBase) {
			t.Fatalf("workers=%d: baseline session differs from serial", workers)
		}
	}
}

// TestClassifyHarmfulParallelDeterministic: sharded adversarial replays
// must classify exactly like the serial oracle (Workers 1), including
// evidence order.
func TestClassifyHarmfulParallelDeterministic(t *testing.T) {
	site := sitegen.Generate(sitegen.SpecFor(1, 7)) // Gomez archetype: harmful races
	cfg := DefaultConfig(1)
	cfg.Filters = true
	cfg.HarmRuns = 4
	res := RunConfig(site, cfg)
	serial, err := ClassifyHarmfulParallel(site, cfg, res, ParallelConfig{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if serial.Total() == 0 {
		t.Fatal("test site produced no harmful races; pick a busier site")
	}
	for _, workers := range []int{1, 4} {
		h, err := ClassifyHarmfulParallel(site, cfg, res, ParallelConfig{Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !reflect.DeepEqual(h, serial) {
			t.Fatalf("workers=%d: harm classification differs from serial:\n got %+v\nwant %+v",
				workers, h, serial)
		}
	}
}

// TestParallelProgress: the sweep populates live counters.
func TestParallelProgress(t *testing.T) {
	var prog Progress
	_, err := RunCorpusParallel(8, corpusGen(1), DefaultConfig(1),
		ParallelConfig{Workers: 4, Progress: &prog})
	if err != nil {
		t.Fatal(err)
	}
	s := prog.Snapshot()
	if s.Done != 8 || s.Total != 8 {
		t.Fatalf("progress snapshot %+v", s)
	}
	sum := 0
	for _, n := range s.PerWorker {
		sum += n
	}
	if sum != 8 {
		t.Fatalf("per-worker sum %d, want 8", sum)
	}
}

// TestParallelCancel: a cancelled corpus sweep stops early and reports
// the context error with partial results in place.
func TestParallelCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	results, err := RunCorpusParallel(50, corpusGen(1), DefaultConfig(1),
		ParallelConfig{Workers: 4, Ctx: ctx})
	if err == nil {
		t.Fatal("cancelled sweep returned nil error")
	}
	if len(results) != 50 {
		t.Fatalf("results length %d, want 50 (with nil holes)", len(results))
	}
}

// Command perfbench is webracer's benchmark. It boots webracerd nodes in
// process on loopback listeners, drives them through one named workload
// with a closed loop of two clients, checks every response (status,
// request-id echo, cache level, and bytes against a cold recomputation on
// a fresh node), and prints the end-to-end metrics by name and unit, its
// times scaled to a reference host speed (hostspeed.go says why and how):
//
//	bash perfbench/run.sh --workload detect-cold --seed 1 --seconds 15 --trace 0
//
// With --trace 1 it makes a separate traced run of the same workload and
// seed instead: after each request it replays the job through the public
// calls of every layer (HTML and JS parsing, the browser substrate, HB
// construction, each detector, the report filters, the sweep drivers, the
// result cache and store, the router), times each call in a span, and
// prints the per-layer metrics. Spans are written to
// .bench_build/perfbench/spans-<workload>-seed<seed>.json as a Chrome
// trace.
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The workloads and metrics are
// listed, with the reasons for each, in BENCHMARK.json at the repository
// root.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// outDir is where the benchmark writes, relative to the checkout root.
var outDir = filepath.Join(".bench_build", "perfbench")

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is the result line.
type outcome struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// setups is how many times an untraced run sets up; setup_s is their
// median, and the last set-up serves the timed phase.
const setups = 5

func main() {
	name := flag.String("workload", "", "workload: detect-cold, detect-heavy, sweep-cold or cluster-hot")
	seed := flag.Int64("seed", 1, "workload seed; every input is generated from it")
	seconds := flag.Float64("seconds", 15, "length of the measured phase in seconds")
	traced := flag.Int("trace", 0, "1 makes a traced run that reports per-layer metrics")
	flag.Parse()

	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: usage: --workload <name> --seed <n> --seconds <s> --trace <0|1>")
		os.Exit(2)
	}
	scratch := filepath.Join(outDir, fmt.Sprintf("run-%d", os.Getpid()))
	out, err := run(w, *seed, time.Duration(*seconds*float64(time.Second)), *traced == 1, scratch)
	if rerr := os.RemoveAll(scratch); err == nil && rerr != nil {
		err = rerr
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	for k, m := range out.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			m.Value = 0
			out.Metrics[k] = m
		}
	}
	blob, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(blob))
}

// run sets the workload up, measures it, verifies every response and
// returns the result line.
func run(w *workload, seed int64, d time.Duration, traced bool, scratch string) (*outcome, error) {
	c := newClient(w.name, seed)
	defer c.close()
	n := setups
	var host hostClock
	if traced {
		n = 1
	} else {
		host.sample()
	}
	var t *target
	var setupS []float64
	for k := 0; k < n; k++ {
		if t != nil {
			// Dropped before the next set-up, so its inputs are garbage
			// by the time that set-up measures its own.
			t.close()
			t = nil
		}
		start := time.Now()
		var err error
		t, err = w.setup(env{seed: seed, dir: filepath.Join(scratch, fmt.Sprintf("setup%d", k)), c: c})
		if err != nil {
			return nil, fmt.Errorf("%s set-up: %w", w.name, err)
		}
		setupS = append(setupS, time.Since(start).Seconds())
	}
	defer t.close()
	fmt.Printf("perfbench: workload %s, seed %d, %d clients (closed loop), %d workers per node\n",
		w.name, seed, clients, nodeWorkers)
	if traced {
		return runTraced(w, t, c, seed, d, scratch)
	}

	ph, recomputed := measureSliced(t, c, d, &host)
	chk := check(t, ph.responses)
	attempted := len(ph.responses)
	// The nodes are idle and unchanged since the timed phase ended; the
	// run's own per-request records are dropped first, and the inputs'
	// share measured in set-up is taken off, so what is left is the nodes'
	// state: result caches, job tables, metrics, connections.
	ph.responses = nil
	heap := liveHeapMB() - t.inputsMB
	fmt.Printf("set-up: %s s (median of %d)\n", floats(setupS, "%.3f"), n)
	chk.print(recomputed, t)

	okPerS := float64(attempted-chk.failed) / ph.wall.Seconds()
	cpuMS := ms(ph.cpu) / float64(attempted)
	fmt.Printf("throughput %.2f req/s over %.3f s; cpu %.4f ms/req; alloc %.2f KB/req; live heap %.2f MB\n",
		okPerS, ph.wall.Seconds(), cpuMS, float64(ph.alloc)/1024/float64(attempted), heap)
	// Times, as measured above, scaled to the reference host speed.
	sc := host.scale()
	fmt.Printf("host: %s\n", &host)
	m := map[string]metric{
		"setup_s":          {median(setupS) * sc, "s"},
		"throughput_rps":   {okPerS / sc, "1/s"},
		"latency_p50_ms":   {chk.p50 * sc, "ms"},
		"latency_p95_ms":   {chk.p95 * sc, "ms"},
		"cpu_ms_per_req":   {cpuMS * sc, "ms"},
		"alloc_kb_per_req": {float64(ph.alloc) / 1024 / float64(attempted), "KB"},
		"live_heap_mb":     {heap, "MB"},
	}
	return &outcome{Correct: chk.correct(), Attempted: attempted, Failed: chk.failed, Metrics: m}, nil
}

// sliceLen is the length of one stretch of the timed phase.
const sliceLen = 2500 * time.Millisecond

// measureSliced runs the timed phase as stretches of about sliceLen that
// add up to d, times the reference kernel on host right before and right
// after every stretch, so that the kernel samples the host's speed next
// to every part of the traffic it scales, and verifies each stretch's
// responses before the next one starts. Cluster-hot's verification
// recomputes its whole job set, so it runs once, after the last stretch.
// It returns the phase summed over the stretches and the number of jobs
// recomputed.
func measureSliced(t *target, c *client, d time.Duration, host *hostClock) (phase, int) {
	k := max(1, int((d+sliceLen/2)/sliceLen))
	var total phase
	recomputed := 0
	next := t.first
	for s := 0; s < k; s++ {
		host.sample()
		ph := measure(func() []response { return c.loop(t, next, forTime(d/time.Duration(k)), nil) })
		host.sample()
		if n := len(ph.responses); n > 0 {
			next = ph.responses[n-1].i + 1
		}
		if !t.hot {
			recomputed += verify(t, ph.responses)
		}
		total.responses = append(total.responses, ph.responses...)
		total.wall += ph.wall
		total.cpu += ph.cpu
		total.alloc += ph.alloc
	}
	if t.hot {
		recomputed = verify(t, total.responses)
	}
	return total, recomputed
}

// runTraced is the traced run: an untraced stretch (a third of the time)
// gives the CPU baseline of the tracing-overhead ratio, then the rest of
// the time runs with the per-layer replays after every request.
func runTraced(w *workload, t *target, c *client, seed int64, d time.Duration, scratch string) (*outcome, error) {
	l, err := newLayers(t, c, filepath.Join(scratch, "layer-store"))
	if err != nil {
		return nil, err
	}
	base := measure(func() []response { return c.loop(t, t.first, forTime(d/3), nil) })
	next := t.first
	if k := len(base.responses); k > 0 {
		next = base.responses[k-1].i + 1
	}
	waits0, waitSum0 := nodeHist(t.nodes, "serve.queue.wait.wall_ms")
	execs0, execSum0 := nodeHist(t.nodes, "serve.jobs.exec.wall_ms")
	tr := measure(func() []response { return c.loop(t, next, forTime(d-d/3), l.after) })
	waits1, waitSum1 := nodeHist(t.nodes, "serve.queue.wait.wall_ms")
	execs1, execSum1 := nodeHist(t.nodes, "serve.jobs.exec.wall_ms")

	all := append(append([]response(nil), base.responses...), tr.responses...)
	recomputed := verify(t, all)
	chk := check(t, all)
	chk.print(recomputed, t)

	v := l.reduce(tr.responses)
	v["serve.queue_wait_ms"] = ratio(float64(waitSum1-waitSum0), float64(waits1-waits0))
	v["serve.exec_ms"] = ratio(float64(execSum1-execSum0), float64(execs1-execs0))
	v["trace.overhead_ratio"] = ratio(ms(tr.cpu)/float64(len(tr.responses)), ms(base.cpu)/float64(len(base.responses)))
	m := map[string]metric{}
	for _, lm := range layerMetrics {
		m[lm.name] = metric{v[lm.name], lm.unit}
		fmt.Printf("layer: %-32s %14.4f %s\n", lm.name, v[lm.name], lm.unit)
	}
	fmt.Printf("traced: %d untraced then %d traced requests; %d distinct jobs replayed\n",
		len(base.responses), len(tr.responses), len(l.seen))
	l.spans.summary()
	l.printShares(v)
	fmt.Printf("race.sampled.escalation_ratio %.3f (jobs whose sampled-tier replay escalates, of %d replayed)\n",
		v["race.sampled.escalation_ratio"], l.sampledJobs)
	fmt.Printf("sweep.pruned_ms %.3f vs sweep.unpruned_ms %.3f (prune.passes_saved_ratio %.3f)\n",
		v["sweep.pruned_ms"], v["sweep.unpruned_ms"], v["prune.passes_saved_ratio"])
	for _, msg := range l.mismatches {
		fmt.Println("library mismatch:", msg)
	}
	path := filepath.Join(outDir, fmt.Sprintf("spans-%s-seed%d.json", w.name, seed))
	if err := l.spans.writeChrome(path); err != nil {
		return nil, err
	}
	fmt.Printf("spans: %d written to %s\n", len(l.spans.log), path)
	return &outcome{Correct: chk.correct(), Attempted: len(all), Failed: chk.failed, Metrics: m}, nil
}

// checked is the tally of a run's responses.
type checked struct {
	attempted, failed int
	idMismatches      int
	byteMismatches    int
	levels            map[string]int // X-Webracer-Cache values of successful responses
	samples           int            // latency samples: the successful responses
	p50, p95          float64        // exact latency quantiles, ms
	guard             string         // why the cache split is wrong, if it is
}

// check tallies the responses and applies the cache-split guard: the cold
// workloads must only miss; cluster-hot must never miss and must reach
// the store at least once.
func check(t *target, rs []response) checked {
	c := checked{attempted: len(rs), levels: map[string]int{}}
	var latMS []float64
	for _, r := range rs {
		if r.err == nil && r.code == 200 && !r.idOK {
			c.idMismatches++
		}
		if r.mismatch {
			c.byteMismatches++
		}
		if r.failed() {
			c.failed++
			continue
		}
		level := r.cache
		if level == "" {
			level = "none"
		}
		c.levels[level]++
		latMS = append(latMS, ms(r.latency))
	}
	c.samples, c.p50, c.p95 = len(latMS), nearestRank(latMS, 50), nearestRank(latMS, 95)
	ok := c.attempted - c.failed
	switch {
	case !t.hot && c.levels["miss"] != ok:
		c.guard = fmt.Sprintf("%d of %d timed responses were not cache misses", ok-c.levels["miss"], ok)
	case t.hot && c.levels["miss"] > 0:
		c.guard = fmt.Sprintf("%d timed responses were cache misses", c.levels["miss"])
	case t.hot && c.levels["store-hit"] == 0:
		c.guard = "no timed response was a store hit"
	}
	return c
}

// correct reports a run with no failure and a cache split as designed.
func (c checked) correct() bool { return c.failed == 0 && c.guard == "" && c.attempted > 0 }

// print reports the tally.
func (c checked) print(recomputed int, t *target) {
	fmt.Printf("requests: %d attempted, %d failed, error_ratio %.6f\n",
		c.attempted, c.failed, ratio(float64(c.failed), float64(c.attempted)))
	fmt.Printf("latency: p50 %.4f ms, p95 %.4f ms over n=%d samples\n", c.p50, c.p95, c.samples)
	levels := make([]string, 0, len(c.levels))
	for l := range c.levels {
		levels = append(levels, fmt.Sprintf("%s %d", l, c.levels[l]))
	}
	sort.Strings(levels)
	fmt.Printf("cache: %s\n", strings.Join(levels, ", "))
	what := "timed jobs"
	if t.hot {
		what = "jobs of the set"
	}
	fmt.Printf("verify: %d %s recomputed on a fresh %d-worker node; %d byte mismatches, %d request-id mismatches\n",
		recomputed, what, nodeWorkers+1, c.byteMismatches, c.idMismatches)
	if c.guard != "" {
		fmt.Println("cache guard FAILED:", c.guard)
	}
}

// floats formats xs with format, space-separated.
func floats(xs []float64, format string) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf(format, x)
	}
	return strings.Join(parts, " ")
}

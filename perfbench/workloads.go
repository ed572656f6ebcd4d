package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"net/http/httptest"
	"path/filepath"
	"sync"

	"webracer/internal/serve"
	"webracer/internal/sitegen"
)

// target is a booted system under test plus the deterministic request
// sequence the workload sends it.
type target struct {
	url string
	// job returns request i. The cold workloads build a fresh job per
	// index; cluster-hot draws from its fixed job set.
	job func(i int) *job
	// first is the first timed request index (warm-up used the ones below).
	first int
	// hot marks cluster-hot: timed responses must be cache or store hits.
	hot bool
	// nodes are the servers that execute jobs (the single node, or the
	// cluster's backends); the traced run reads their /metrics registries.
	nodes []*serve.Server
	// backends maps a backend name to its base URL (cluster only).
	backends map[string]string
	// jobs and cold are cluster-hot's job set and each job's cold-pass
	// response bytes, which every timed response must equal.
	jobs []*job
	cold map[*job][]byte
	// nodeConfig is the per-node configuration; verification recomputes
	// on a fresh node that differs from it only in worker count.
	nodeConfig serve.Config
	// inputsMB is the live heap once the inputs were generated and before
	// the measured nodes booted: the load generator's own share, which
	// live_heap_mb leaves out.
	inputsMB float64
	close    func()
}

// env is what a workload's set-up gets.
type env struct {
	seed int64
	dir  string // scratch directory private to this set-up
	c    *client
}

// workload is one named traffic mix.
type workload struct {
	name  string
	setup func(e env) (*target, error)
}

var workloads = []workload{
	{"detect-cold", setupDetectCold},
	{"detect-heavy", setupDetectHeavy},
	{"sweep-cold", setupSweepCold},
	{"cluster-hot", setupClusterHot},
}

// nodeWorkers is each node's job worker count.
const nodeWorkers = 2

// runSeed derives request i's schedule seed: distinct for every request
// of a run, and different across workload seeds.
func runSeed(seed int64, i int) int64 { return seed*1_000_003 + int64(i) }

// bootNode starts one webracerd node on a loopback listener.
func bootNode(cfg serve.Config) (*serve.Server, *httptest.Server) {
	s := serve.NewServer(cfg)
	return s, httptest.NewServer(s.Handler())
}

// singleNode boots one node for gen's requests and sends it `warmup`
// requests, so that connections, the result cache and the job history are
// filled before timing starts. Warm-up requests are distinct jobs too.
func singleNode(e env, cfg serve.Config, warmup int, gen func(i int) *job) (*target, error) {
	inputs := liveHeapMB()
	s, ts := bootNode(cfg)
	t := &target{
		url:        ts.URL,
		job:        gen,
		first:      warmup,
		nodes:      []*serve.Server{s},
		nodeConfig: cfg,
		inputsMB:   inputs,
		close: func() {
			ts.Close()
			s.Close()
		},
	}
	for _, r := range e.c.loop(t, 0, forCount(0, warmup), nil) {
		if !r.ok() {
			t.close()
			return nil, fmt.Errorf("warm-up request %d failed: code %d: %v", r.i, r.code, r.err)
		}
	}
	return t, nil
}

// corpusSeed is the corpus the workloads draw their typical pages from.
// A corpus redrawn per workload seed would move the figures with the
// corpus's heavy tail (more so for sweeps, which multiply a page's cost
// by their run count); with the corpus fixed, the workload seed varies
// the schedule seeds, and cluster-hot's request draw, instead.
const corpusSeed = 1

// coldPages is detect-cold's page pool. Request i carries page i mod
// coldPages at a seed no other request uses, so every request is a cache
// miss; a pool this size spans the corpus's heavy tail (the outlier sites
// sit at fixed index residues) in every run.
const coldPages = 1000

// setupDetectCold: typical corpus pages, default detector, one node, no
// store. The cache budget and job history are small so that warm-up fills
// them and the live heap stops growing with the request count.
func setupDetectCold(e env) (*target, error) {
	pages := make([]*page, coldPages)
	for i := range pages {
		pages[i] = newPage(sitegen.SpecFor(corpusSeed, i))
	}
	cfg := serve.Config{Workers: nodeWorkers, CacheBytes: 1 << 20, JobHistory: 64}
	return singleNode(e, cfg, 300, func(i int) *job {
		return &job{endpoint: "detect", page: pages[i%coldPages], seed: runSeed(e.seed, i)}
	})
}

// heavyDetectors is detect-heavy's detector rotation, by request index.
var heavyDetectors = []string{"pairwise", "pairwise-vc", "sampled", "accessset", "predictive"}

// heavyPages is detect-heavy's §6-scale page pool; 4 is coprime with the
// 5 detectors, so every detector meets every page.
const heavyPages = 4

// setupDetectHeavy: stress pages at distinct seeds, rotating detectors.
func setupDetectHeavy(e env) (*target, error) {
	pages := make([]*page, heavyPages)
	for k := range pages {
		pages[k] = newPage(sitegen.StressSpec(int((e.seed%25+25)%25)*heavyPages + k))
	}
	cfg := serve.Config{Workers: nodeWorkers, CacheBytes: 2 << 20, JobHistory: 8}
	return singleNode(e, cfg, 2*len(heavyDetectors), func(i int) *job {
		return &job{
			endpoint: "detect",
			page:     pages[i%heavyPages],
			seed:     runSeed(e.seed, i),
			detector: heavyDetectors[i%len(heavyDetectors)],
		}
	})
}

// Sweep-cold page pools.
const (
	sweepCorpusPages = 200
	sweepSchedPages  = 8
	sweepFaultPages  = 8
)

// setupSweepCold: the four sweep request shapes in rotation, over
// distinct (page, seed) pairs.
func setupSweepCold(e env) (*target, error) {
	corpus := make([]*page, sweepCorpusPages)
	for i := range corpus {
		corpus[i] = newPage(sitegen.SpecFor(corpusSeed, i))
	}
	sched := make([]*page, sweepSchedPages)
	for i := range sched {
		sched[i] = newPage(sitegen.SchedSpec(i))
	}
	faulty := make([]*page, sweepFaultPages)
	for i := range faulty {
		faulty[i] = newPage(sitegen.FaultSpec(i))
	}
	cfg := serve.Config{Workers: nodeWorkers, CacheBytes: 256 << 10, JobHistory: 16}
	return singleNode(e, cfg, 40, func(i int) *job {
		n := i / 4
		j := &job{endpoint: "sweep", seed: runSeed(e.seed, i), page: corpus[n%sweepCorpusPages]}
		switch i % 4 {
		case 0:
			j.seeds = 8
		case 1:
			j.seeds, j.prune = 8, true
			if n%2 == 0 {
				j.page = sched[n/2%sweepSchedPages]
			}
		case 2:
			j.mode = "delay-one"
		case 3:
			j.endpoint, j.plans, j.page = "faultsweep", 6, faulty[n%sweepFaultPages]
		}
		return j
	})
}

// Cluster-hot's traffic is cmd/webracerbench's load model at its
// defaults: clusterJobs distinct jobs in a fixed 8:1:1
// detect/sweep/faultsweep mix; a request draws from the first hotJobs of
// them with probability hotFrac, and otherwise uniformly from all of them.
const (
	clusterBackends = 3
	clusterJobs     = 24
	hotJobs         = clusterJobs / 4
	hotFrac         = 0.8
)

// clusterJobSet builds cluster-hot's jobs.
func clusterJobSet(seed int64) []*job {
	jobs := make([]*job, clusterJobs)
	for j := range jobs {
		s := runSeed(seed, j)
		switch j % 10 {
		case 8:
			jobs[j] = &job{endpoint: "sweep", page: newPage(sitegen.SpecFor(corpusSeed, j)), seed: s, seeds: 2}
		case 9:
			jobs[j] = &job{endpoint: "faultsweep", page: newPage(sitegen.FaultSpec(j / 10 % 8)), seed: s, plans: 2}
		default:
			jobs[j] = &job{endpoint: "detect", page: newPage(sitegen.SpecFor(corpusSeed, j)), seed: s}
		}
	}
	return jobs
}

// drawJob picks request i's job: FNV-1a over (seed, i), split into the
// hot-or-uniform decision and the index draw.
func drawJob(seed int64, i int) int {
	h := fnv.New64a()
	var b8 [8]byte
	binary.LittleEndian.PutUint64(b8[:], uint64(seed))
	h.Write(b8[:])
	binary.LittleEndian.PutUint64(b8[:], uint64(i))
	h.Write(b8[:])
	x := h.Sum64()
	if float64(x%1000)/1000 < hotFrac {
		return int((x / 1000) % hotJobs)
	}
	return int((x / 1000) % clusterJobs)
}

// cluster is an in-process router in front of backends, each backend
// with its own store directory.
type cluster struct {
	backends []*serve.Server
	bts      []*httptest.Server
	local    *serve.Server
	router   *serve.Router
	rts      *httptest.Server
}

// bootCluster starts the backends (budgets[k] bytes of LRU each) over the
// store directories under dir, and a router in front of them. Backend
// names are fixed, so keys hash to the same backend across reboots.
func bootCluster(dir string, budgets []int64) *cluster {
	c := &cluster{}
	rcfg := serve.RouterConfig{}
	for k := 0; k < clusterBackends; k++ {
		s, ts := bootNode(serve.Config{
			Workers:    nodeWorkers,
			CacheBytes: budgets[k],
			StoreDir:   filepath.Join(dir, fmt.Sprintf("b%d", k)),
		})
		c.backends = append(c.backends, s)
		c.bts = append(c.bts, ts)
		rcfg.Backends = append(rcfg.Backends, ts.URL)
		rcfg.BackendNames = append(rcfg.BackendNames, fmt.Sprintf("b%d", k))
	}
	c.local = serve.NewServer(serve.Config{Workers: nodeWorkers})
	c.router = serve.NewRouter(c.local, rcfg)
	c.rts = httptest.NewServer(c.router.Handler())
	return c
}

// close stops the router, then the backends.
func (c *cluster) close() {
	c.rts.Close()
	c.router.Close()
	c.local.Close()
	for k, ts := range c.bts {
		ts.Close()
		c.backends[k].Close()
	}
}

// cacheCost is the LRU's budget charge for one entry (key, body and its
// fixed per-entry overhead in internal/serve).
func cacheCost(key string, body []byte) int64 { return int64(len(key)+len(body)) + 128 }

// setupClusterHot computes every job once through a cold cluster (filling
// each backend's store), reboots the backends over the same stores with an
// LRU budget that holds the backend's share of the hot subset and no
// more, and warms the reboot up with the workload's own draw. The timed
// phase then sees only cache hits and store hits.
func setupClusterHot(e env) (*target, error) {
	jobs := clusterJobSet(e.seed)
	unlimited := make([]int64, clusterBackends)
	for k := range unlimited {
		unlimited[k] = 256 << 20
	}
	c := bootCluster(e.dir, unlimited)
	coldT := &target{url: c.rts.URL, job: func(i int) *job { return jobs[i] }}
	cold := map[*job][]byte{}
	hotCost := make([]int64, clusterBackends)
	var coldErr error
	var mu sync.Mutex
	e.c.loop(coldT, 0, forCount(0, clusterJobs), func(_ int, r *response, rp *reply) {
		mu.Lock()
		defer mu.Unlock()
		var k int
		if _, err := fmt.Sscanf(rp.backend, "b%d", &k); err != nil || !r.ok() || r.cache != "miss" {
			coldErr = fmt.Errorf("cold pass job %d: code %d, cache %q, backend %q: %v",
				r.i, r.code, r.cache, rp.backend, r.err)
			return
		}
		cold[rp.job] = rp.body
		if r.i < hotJobs {
			hotCost[k] += cacheCost(rp.jobKey, rp.body)
		}
	})
	c.close()
	if coldErr != nil {
		return nil, coldErr
	}

	// A budget below 1 would mean the 64 MiB default, so a backend that
	// owns no hot job gets 1 byte: it caches nothing.
	budgets := make([]int64, clusterBackends)
	for k := range budgets {
		budgets[k] = max(hotCost[k], 1)
	}
	inputs := liveHeapMB()
	c = bootCluster(e.dir, budgets)
	t := &target{
		inputsMB: inputs,
		url:      c.rts.URL,
		job:      func(i int) *job { return jobs[drawJob(e.seed, i)] },
		first:    2 * clusterJobs,
		hot:      true,
		nodes:    c.backends,
		backends: map[string]string{},
		jobs:     jobs,
		cold:     cold,
		// Verification recomputes on one fresh node without a store.
		nodeConfig: serve.Config{Workers: nodeWorkers},
		close:      c.close,
	}
	for k, ts := range c.bts {
		t.backends[fmt.Sprintf("b%d", k)] = ts.URL
	}
	for _, r := range e.c.loop(t, 0, forCount(0, t.first), nil) {
		if !r.ok() {
			t.close()
			return nil, fmt.Errorf("warm-up request %d failed: code %d: %v", r.i, r.code, r.err)
		}
	}
	return t, nil
}

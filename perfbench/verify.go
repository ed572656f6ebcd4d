package main

import (
	"bytes"
	"crypto/sha256"
	"net/http"
	"net/http/httptest"

	"webracer/internal/pool"
	"webracer/internal/serve"
)

// verify holds the served bytes to a cold recomputation on a fresh node
// whose worker count differs from the serving nodes', marking every
// response whose bytes differ. On the cold workloads every timed job is
// recomputed. On cluster-hot each response is compared with its job's
// cold-pass bytes, and each job of the set is recomputed once.
// It returns the number of jobs recomputed.
func verify(t *target, rs []response) int {
	cfg := t.nodeConfig
	cfg.Workers = nodeWorkers + 1
	fresh := serve.NewServer(cfg)
	defer fresh.Close()
	h := fresh.Handler()
	recompute := func(j *job) [32]byte {
		w := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodPost, j.path(), bytes.NewReader(j.body()))
		req.Header.Set("Content-Type", "application/json")
		h.ServeHTTP(w, req)
		if w.Code != http.StatusOK {
			return [32]byte{}
		}
		return sha256.Sum256(w.Body.Bytes())
	}

	// A recomputation that panics leaves a zero digest, which matches no
	// response, so Map's error needs no separate handling.
	opts := pool.Options{Workers: cfg.Workers}
	if !t.hot {
		sums, _ := pool.Map(opts, len(rs), func(k int) [32]byte {
			if !rs[k].ok() {
				return [32]byte{}
			}
			return recompute(t.job(rs[k].i))
		})
		for k := range rs {
			rs[k].mismatch = rs[k].ok() && sums[k] != rs[k].sum
		}
		return len(rs)
	}

	sums, _ := pool.Map(opts, len(t.jobs), func(k int) [32]byte { return recompute(t.jobs[k]) })
	// want[j] is the job's cold-pass digest, or none when the fresh node
	// disagrees with the cold pass (then every response of j mismatches).
	want := make(map[*job][32]byte, len(t.jobs))
	for k, j := range t.jobs {
		if s := sha256.Sum256(t.cold[j]); s == sums[k] {
			want[j] = s
		}
	}
	for k := range rs {
		r := &rs[k]
		if s, ok := want[t.job(r.i)]; r.ok() && (!ok || r.sum != s) {
			r.mismatch = true
		}
	}
	return len(t.jobs)
}

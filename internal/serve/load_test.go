package serve

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"reflect"
	"strings"
	"sync"
	"testing"
)

// The load trace: loadRequests draws by loadClients concurrent clients
// over loadJobs distinct jobs, a loadHotFrac share of them from the first
// loadHot jobs. perfbench's cluster-hot workload draws the same way.
const (
	loadSeed     = 1
	loadJobs     = 24
	loadHot      = 6
	loadHotFrac  = 0.8
	loadRequests = 2000
	loadClients  = 8
)

// loadJob is one distinct job of the trace and the bytes its cold run
// answered.
type loadJob struct {
	endpoint, path, body string
	cold                 []byte
}

// newLoadJobs lays out the trace's jobs: a fixed 8:1:1 detect / sweep /
// faultsweep mix by job index.
func newLoadJobs() []*loadJob {
	jobs := make([]*loadJob, loadJobs)
	for j := range jobs {
		switch j % 10 {
		case 8:
			jobs[j] = &loadJob{endpoint: "sweep", path: "/v1/sweep",
				body: fmt.Sprintf(`{"spec":{"kind":"corpus","index":%d},"seeds":2}`, j)}
		case 9:
			jobs[j] = &loadJob{endpoint: "faultsweep", path: "/v1/faultsweep",
				body: fmt.Sprintf(`{"spec":{"kind":"fault","index":%d},"plans":2}`, j%8)}
		default:
			jobs[j] = &loadJob{endpoint: "detect", path: "/v1/detect", body: detectReq(j, loadSeed)}
		}
	}
	return jobs
}

// loadPick draws the job client w sends as its i-th request: FNV-1a over
// (seed, w, i), split into the hot-or-uniform decision and the index.
func loadPick(w, i int) int {
	h := fnv.New64a()
	var b8 [8]byte
	for _, v := range []uint64{loadSeed, uint64(w), uint64(i)} {
		binary.LittleEndian.PutUint64(b8[:], v)
		h.Write(b8[:])
	}
	x := h.Sum64()
	if float64(x%1000)/1000 < loadHotFrac {
		return int((x / 1000) % loadHot)
	}
	return int((x / 1000) % loadJobs)
}

// postWithID POSTs body to url through client, carrying request id id
// when it is not empty. Failures come back as an error rather than
// through a *testing.T, so concurrent clients can call it.
func postWithID(client *http.Client, url, body, id string) (*http.Response, []byte, error) {
	hr, err := http.NewRequest(http.MethodPost, url, strings.NewReader(body))
	if err != nil {
		return nil, nil, err
	}
	hr.Header.Set("Content-Type", "application/json")
	if id != "" {
		hr.Header.Set(HeaderRequestID, id)
	}
	resp, err := client.Do(hr)
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp, b, err
}

// TestClusterLoadByteIdentical replays the load trace against three
// backends behind a router, at backend workers 1 and 4: a serial cold
// pass over every job, loadRequests draws from loadClients concurrent
// clients, a serial verify pass, and a fresh node's recompute of every
// job. Every answer must be a 200 that echoes its request id and is
// byte-identical to its job's cold bytes. The endpoint and cache-level
// counts are pinned, and so equal at either worker count.
func TestClusterLoadByteIdentical(t *testing.T) {
	wantEndpoints := map[string]int{"detect": 1935, "sweep": 34, "faultsweep": 31}
	wantLevels := map[string]int{"hit": 2024, "miss": 24}
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			c := newCluster(t, 3, Config{Workers: workers}, RouterConfig{})
			client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: loadClients}}
			defer client.CloseIdleConnections()
			jobs := newLoadJobs()

			var mu sync.Mutex
			endpoints, levels := map[string]int{}, map[string]int{}
			// send posts job j as request id and holds the answer to the
			// job's cold bytes; the first answer becomes them.
			send := func(j *loadJob, id string) {
				resp, body, err := postWithID(client, c.rts.URL+j.path, j.body, id)
				if err != nil {
					t.Errorf("%s: %v", id, err)
					return
				}
				mu.Lock()
				defer mu.Unlock()
				levels[resp.Header.Get(HeaderCache)]++
				if resp.StatusCode != http.StatusOK {
					t.Errorf("%s: %d %s", id, resp.StatusCode, body)
					return
				}
				if got := resp.Header.Get(HeaderRequestID); got != id {
					t.Errorf("%s: request id echoed as %q", id, got)
				}
				if j.cold == nil {
					j.cold = body
				} else if !bytes.Equal(body, j.cold) {
					t.Errorf("%s: %s answer differs from its cold bytes", id, j.endpoint)
				}
			}

			for ji, j := range jobs {
				send(j, fmt.Sprintf("warm-%d", ji))
			}
			if t.Failed() {
				t.FailNow() // a job without cold bytes would take its first load answer as them
			}
			var wg sync.WaitGroup
			for w := 0; w < loadClients; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := 0; i < loadRequests/loadClients; i++ {
						j := jobs[loadPick(w, i)]
						send(j, fmt.Sprintf("load-w%d-%d", w, i))
						mu.Lock()
						endpoints[j.endpoint]++
						mu.Unlock()
					}
				}(w)
			}
			wg.Wait()
			for ji, j := range jobs {
				send(j, fmt.Sprintf("verify-%d", ji))
			}

			_, ref := newTestServer(t, Config{Workers: workers})
			for ji, j := range jobs {
				if resp, body := post(t, ref, j.path, j.body); resp.StatusCode != http.StatusOK || !bytes.Equal(body, j.cold) {
					t.Errorf("job %d: a fresh node answers %d with other bytes than the cluster", ji, resp.StatusCode)
				}
			}

			if !reflect.DeepEqual(endpoints, wantEndpoints) {
				t.Errorf("load requests by endpoint = %v, want %v", endpoints, wantEndpoints)
			}
			if !reflect.DeepEqual(levels, wantLevels) {
				t.Errorf("answers by cache level = %v, want %v", levels, wantLevels)
			}
		})
	}
}

// Package loader simulates the network. The paper's races arise from
// environmental asynchrony — "variation in network bandwidth, CPU
// resources, or the timing of user input events" (§2.1) — which this
// package reproduces deterministically: every resource fetch yields a
// latency drawn from a seeded distribution, so a given (site, seed) pair
// always produces the same execution, and different seeds explore different
// interleavings.
//
// Fetching goes through the Fetcher interface so the network model is
// swappable: Loader is the plain success-only model; internal/fault wraps
// any Fetcher with a deterministic fault plan (drops, HTTP error statuses,
// stalls, truncated bodies) so error-path orderings become explorable too.
package loader

import (
	"fmt"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
)

// Site is the static content of one web site: URL → body. HTML pages,
// external scripts and iframe documents all live here.
type Site struct {
	// Resources maps URL to content.
	Resources map[string]string
	// Name labels the site in reports.
	Name string
}

// NewSite returns an empty site.
func NewSite(name string) *Site {
	return &Site{Name: name, Resources: map[string]string{}}
}

// Add registers a resource.
func (s *Site) Add(url, body string) *Site {
	s.Resources[url] = body
	return s
}

// Latency describes the fetch-latency distribution in virtual
// milliseconds.
type Latency struct {
	// Base is the minimum latency of any fetch.
	Base float64
	// Jitter is the width of the uniform random component added to Base.
	Jitter float64
	// PerURL overrides the drawn latency for specific URLs (used by the
	// adversarial harm-oracle schedule and by tests that need a specific
	// interleaving).
	PerURL map[string]float64
}

// DefaultLatency models a broadband connection: 5–80ms per resource.
func DefaultLatency() Latency { return Latency{Base: 5, Jitter: 75} }

// Response is the outcome of one fetch: the resource body, an HTTP-style
// status, the virtual latency until the outcome is observable, and the
// transport error (nil unless the resource failed to arrive at all).
// Status is 200 on success; a missing resource is a 404 with ErrNotFound.
// Fault injectors produce the remaining shapes: 4xx/5xx statuses with
// empty bodies, transport errors (drop/refuse), stalled latencies, and
// truncated bodies (Truncated set).
type Response struct {
	Body    string
	Status  int
	Latency float64
	Err     error
	// Truncated marks a body cut short mid-transfer by a fault.
	Truncated bool
}

// OK reports whether the response delivered the resource: no transport
// error and a non-error status.
func (r Response) OK() bool { return r.Err == nil && r.Status < 400 }

// Fetcher resolves URL fetches against a site. Implementations must be
// deterministic for a fixed construction (same call sequence → same
// responses); the browser relies on that for replayable executions.
type Fetcher interface {
	// Fetch returns the simulated outcome of requesting url.
	Fetch(url string) Response
	// Fetches reports how many fetches have been issued.
	Fetches() int
	// Site returns the site being served.
	Site() *Site
}

// Loader is the plain Fetcher: every registered resource succeeds with a
// latency drawn from the seeded distribution.
type Loader struct {
	site *Site
	lat  Latency
	seed int64
	// rng draws the latencies; it is seeded on the first fetch.
	rng     *rand.Rand
	fetches int
}

// New creates a loader over site with the given latency model and seed.
func New(site *Site, lat Latency, seed int64) *Loader {
	return &Loader{site: site, lat: lat, seed: seed}
}

// LoadDir reads every regular file under dir into a Site, keyed by its
// slash-separated path relative to dir — the on-disk layout cmd/webracer
// and cmd/sitegen exchange. Hidden files (dot-prefixed) are skipped.
func LoadDir(dir string) (*Site, error) {
	site := NewSite(filepath.Base(dir))
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if strings.HasPrefix(name, ".") && path != dir {
			if d.IsDir() {
				return fs.SkipDir
			}
			return nil
		}
		if d.IsDir() {
			return nil
		}
		rel, err := filepath.Rel(dir, path)
		if err != nil {
			return err
		}
		body, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		site.Add(filepath.ToSlash(rel), string(body))
		return nil
	})
	if err != nil {
		return nil, err
	}
	if len(site.Resources) == 0 {
		return nil, fmt.Errorf("loader: no files under %s", dir)
	}
	return site, nil
}

// WriteDir writes the site's resources under dir, creating directories as
// needed (the inverse of LoadDir).
func (s *Site) WriteDir(dir string) error {
	for url, body := range s.Resources {
		path := filepath.Join(dir, filepath.FromSlash(url))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			return err
		}
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			return err
		}
	}
	return nil
}

// ErrNotFound reports a fetch of an unregistered URL.
type ErrNotFound struct{ URL string }

func (e *ErrNotFound) Error() string { return fmt.Sprintf("loader: resource %q not found", e.URL) }

// Fetch returns the outcome of requesting url: the body and the simulated
// latency until its bytes arrive. Image URLs (and any other URL ending in a
// known binary suffix) succeed with an empty body even when unregistered:
// pages reference decor images that only matter for their load events.
func (l *Loader) Fetch(url string) Response {
	l.fetches++
	if l.rng == nil {
		l.rng = rand.New(rand.NewSource(l.seed))
	}
	lat := l.lat.Base + l.rng.Float64()*l.lat.Jitter
	if over, ok := l.lat.PerURL[url]; ok {
		lat = over
	}
	b, ok := l.site.Resources[url]
	if !ok {
		if isBinary(url) {
			return Response{Status: 200, Latency: lat}
		}
		return Response{Status: 404, Latency: lat, Err: &ErrNotFound{URL: url}}
	}
	return Response{Body: b, Status: 200, Latency: lat}
}

// Fetches reports how many fetches have been issued.
func (l *Loader) Fetches() int { return l.fetches }

// Site returns the site being served.
func (l *Loader) Site() *Site { return l.site }

// isBinary reports whether url names a decor resource (image, stylesheet,
// font) that may succeed with an empty body when unregistered. The match
// ignores case and any query string or fragment, so `logo.PNG` and
// `a.png?v=2` take the binary fast path like `a.png` does.
func isBinary(url string) bool {
	if i := strings.IndexAny(url, "?#"); i >= 0 {
		url = url[:i]
	}
	url = strings.ToLower(url)
	for _, suf := range []string{".png", ".jpg", ".jpeg", ".gif", ".ico", ".css", ".svg", ".woff"} {
		if strings.HasSuffix(url, suf) {
			return true
		}
	}
	return false
}

package loader

import (
	"errors"
	"math/rand"
	"testing"
)

func TestFetchRegistered(t *testing.T) {
	site := NewSite("t").Add("a.js", "x = 1;")
	l := New(site, Latency{Base: 10, Jitter: 5}, 1)
	resp := l.Fetch("a.js")
	if resp.Err != nil {
		t.Fatal(resp.Err)
	}
	if resp.Body != "x = 1;" {
		t.Errorf("body = %q", resp.Body)
	}
	if resp.Status != 200 || !resp.OK() {
		t.Errorf("status = %d", resp.Status)
	}
	if resp.Latency < 10 || resp.Latency > 15 {
		t.Errorf("latency %v outside [10,15]", resp.Latency)
	}
	if l.Fetches() != 1 {
		t.Errorf("Fetches = %d", l.Fetches())
	}
}

func TestFetchMissing(t *testing.T) {
	l := New(NewSite("t"), Latency{Base: 1}, 1)
	resp := l.Fetch("missing.js")
	var nf *ErrNotFound
	if !errors.As(resp.Err, &nf) || nf.URL != "missing.js" {
		t.Fatalf("err = %v", resp.Err)
	}
	if resp.Status != 404 || resp.OK() {
		t.Errorf("missing resource status = %d", resp.Status)
	}
}

func TestFetchBinaryAlwaysSucceeds(t *testing.T) {
	l := New(NewSite("t"), Latency{Base: 1}, 1)
	for _, url := range []string{"decor.png", "a.jpg", "b.gif", "c.css", "d.ico"} {
		if resp := l.Fetch(url); resp.Err != nil {
			t.Errorf("binary fetch %s failed: %v", url, resp.Err)
		}
	}
	if resp := l.Fetch("page.html"); resp.Err == nil {
		t.Error("missing html succeeded")
	}
}

// TestIsBinaryCaseAndQuery: the binary fast path is case-insensitive and
// ignores query strings and fragments — `logo.PNG` and `a.png?v=2` must
// not spuriously 404.
func TestIsBinaryCaseAndQuery(t *testing.T) {
	l := New(NewSite("t"), Latency{Base: 1}, 1)
	for _, url := range []string{
		"logo.PNG", "a.png?v=2", "hero.JPG?cache=1&x=2", "style.CSS",
		"icon.Ico#frag", "pic.JPEG?",
	} {
		if resp := l.Fetch(url); resp.Err != nil {
			t.Errorf("binary fetch %s failed: %v", url, resp.Err)
		}
	}
	for _, url := range []string{"page.html?v=2", "app.js?x=png", "png.html"} {
		if resp := l.Fetch(url); resp.Err == nil {
			t.Errorf("non-binary fetch %s spuriously succeeded", url)
		}
	}
}

func TestPerURLOverride(t *testing.T) {
	site := NewSite("t").Add("slow.js", "x")
	l := New(site, Latency{Base: 5, Jitter: 10, PerURL: map[string]float64{"slow.js": 500}}, 1)
	if resp := l.Fetch("slow.js"); resp.Latency != 500 {
		t.Errorf("override ignored: %v", resp.Latency)
	}
}

func TestDeterministicLatency(t *testing.T) {
	site := NewSite("t").Add("a.js", "x").Add("b.js", "y")
	seq := func() []float64 {
		l := New(site, DefaultLatency(), 42)
		var out []float64
		for i := 0; i < 10; i++ {
			out = append(out, l.Fetch("a.js").Latency)
		}
		return out
	}
	a, b := seq(), seq()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed, different latency at fetch %d: %v vs %v", i, a[i], b[i])
		}
	}
	// Different seed: different draws (overwhelmingly likely).
	l2 := New(site, DefaultLatency(), 43)
	if lat2 := l2.Fetch("a.js").Latency; lat2 == a[0] {
		t.Log("different seeds coincided on first draw (possible but unlikely)")
	}
}

func TestLoadDirWriteDirRoundTrip(t *testing.T) {
	dir := t.TempDir()
	orig := NewSite("disk").
		Add("index.html", "<p>hi</p>").
		Add("js/app.js", "x = 1;").
		Add("frames/a.html", "<p>frame</p>")
	if err := orig.WriteDir(dir); err != nil {
		t.Fatal(err)
	}
	back, err := LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Resources) != len(orig.Resources) {
		t.Fatalf("round trip: %d resources, want %d", len(back.Resources), len(orig.Resources))
	}
	for url, body := range orig.Resources {
		if back.Resources[url] != body {
			t.Errorf("resource %s differs", url)
		}
	}
}

func TestLoadDirSkipsHidden(t *testing.T) {
	dir := t.TempDir()
	site := NewSite("h").Add("index.html", "x")
	if err := site.WriteDir(dir); err != nil {
		t.Fatal(err)
	}
	if err := NewSite("h2").Add(".git/config", "secret").WriteDir(dir); err != nil {
		t.Fatal(err)
	}
	back, err := LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := back.Resources[".git/config"]; ok {
		t.Error("hidden directory content loaded")
	}
	if _, ok := back.Resources["index.html"]; !ok {
		t.Error("regular file missing")
	}
}

func TestLoadDirEmpty(t *testing.T) {
	if _, err := LoadDir(t.TempDir()); err == nil {
		t.Error("empty directory should error")
	}
}

func TestSiteBuilder(t *testing.T) {
	site := NewSite("corp").Add("a", "1").Add("b", "2")
	if site.Name != "corp" || len(site.Resources) != 2 {
		t.Errorf("site = %+v", site)
	}
	l := New(site, DefaultLatency(), 1)
	if l.Site() != site {
		t.Error("Site accessor")
	}
}

// TestFetchLatencySequence: the latency source, seeded on the first
// fetch, draws the seed's sequence from its first value.
func TestFetchLatencySequence(t *testing.T) {
	site := NewSite("t").Add("a.js", "x = 1;")
	l := New(site, Latency{Base: 5, Jitter: 75}, 42)
	want := rand.New(rand.NewSource(42))
	for i := 0; i < 3; i++ {
		if got, w := l.Fetch("a.js").Latency, 5+want.Float64()*75; got != w {
			t.Fatalf("fetch %d latency %v, want %v", i, got, w)
		}
	}
}

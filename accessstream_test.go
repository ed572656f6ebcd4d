package webracer

import (
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"webracer/internal/loader"
	"webracer/internal/sitegen"
)

// accessStreamPages is the access-stream golden's page set: corpus pages
// 0–199 at corpus seed 1, the sched and fault pages, one stress page and
// the paper's two figures.
func accessStreamPages() []struct {
	name string
	site *loader.Site
} {
	var pages []struct {
		name string
		site *loader.Site
	}
	add := func(name string, site *loader.Site) {
		pages = append(pages, struct {
			name string
			site *loader.Site
		}{name, site})
	}
	for i := 0; i < 200; i++ {
		add(fmt.Sprintf("corpus-%03d", i), sitegen.Generate(sitegen.SpecFor(1, i)))
	}
	for i := 0; i < 4; i++ {
		add(fmt.Sprintf("sched-%02d", i), sitegen.Generate(sitegen.SchedSpec(i)))
		add(fmt.Sprintf("fault-%02d", i), sitegen.Generate(sitegen.FaultSpec(i)))
	}
	add("stress-00", sitegen.Generate(sitegen.StressSpec(0)))
	add("fig1", sitegen.Fig1())
	add("fig4", sitegen.Fig4())
	return pages
}

// accessStreamLine digests one run as one line: the page, the number of
// accesses the interpreter and browser reported, the SHA-256 of all of
// them (kind, location, op, context and description, in order), and the
// next serial the run's allocator would issue, which moves if any
// object, closure or captured binding is allocated in a different order.
func accessStreamLine(name string, res *Result) string {
	h := sha256.New()
	trace := res.Browser.Trace()
	for _, a := range trace {
		fmt.Fprintf(h, "%d|%s|%d|%d|%s\n", a.Kind, a.Loc, a.Op, a.Ctx, a.Desc)
	}
	return fmt.Sprintf("%s %d %x %d\n", name, len(trace), h.Sum(nil), res.Browser.Serials.Next())
}

// TestGoldenAccessStreams pins what the interpreter observably does on
// every page of accessStreamPages: the full access stream the detector
// sees and the final serial counter. Location names (obj87, #74) carry
// serials, so an interpreter change that reorders allocations or drops,
// adds or relabels an access fails here even where no race report
// moves. Regenerate deliberately with
//
//	go test -run TestGoldenAccessStreams -update .
func TestGoldenAccessStreams(t *testing.T) {
	var got []string
	for _, pg := range accessStreamPages() {
		cfg := DefaultConfig(1)
		cfg.RecordTrace = true
		got = append(got, accessStreamLine(pg.name, RunConfig(pg.site, cfg)))
	}
	out := strings.Join(got, "")

	// Not .json: the canonical-fingerprint fuzzer seeds itself from the
	// session goldens, testdata/golden/*.json.
	path := filepath.Join("testdata", "golden", "access-streams.txt")
	if *updateGolden {
		if err := os.WriteFile(path, []byte(out), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", path)
		return
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	want := strings.SplitAfter(string(raw), "\n")
	if len(want) != len(got)+1 {
		t.Fatalf("golden has %d pages, run has %d", len(want)-1, len(got))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("access stream drifted:\n got  %s want %s", got[i], want[i])
		}
	}
}

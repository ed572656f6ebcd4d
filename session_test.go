package webracer

import (
	"sort"
	"strings"
	"testing"

	"webracer/internal/loader"
)

func TestSessionExportRoundTrip(t *testing.T) {
	cfg := DefaultConfig(1)
	cfg.RecordTrace = true
	res := RunConfig(demoSite(), cfg)
	h, err := ClassifyHarmfulParallel(demoSite(), cfg, res, ParallelConfig{})
	if err != nil {
		t.Fatal(err)
	}
	s := Export(res, cfg.Seed, h, true)

	if s.Site != "demo" || len(s.Ops) == 0 || len(s.Edges) == 0 {
		t.Fatalf("session shape: site=%q ops=%d edges=%d", s.Site, len(s.Ops), len(s.Edges))
	}
	if len(s.Races) != len(res.Reports) {
		t.Fatalf("races = %d, want %d", len(s.Races), len(res.Reports))
	}
	if len(s.Trace) == 0 {
		t.Fatal("trace not embedded")
	}
	// At least one race carries a harmfulness verdict.
	sawVerdict := false
	for _, r := range s.Races {
		if r.Harmful != nil {
			sawVerdict = true
		}
	}
	if !sawVerdict {
		t.Error("no harmfulness verdicts exported")
	}

	var sb strings.Builder
	if err := s.WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	back, err := ReadSession(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if back.Site != s.Site || len(back.Races) != len(s.Races) ||
		len(back.Ops) != len(s.Ops) || len(back.Edges) != len(s.Edges) {
		t.Errorf("round trip lost data: %+v vs %+v", back.Counts, s.Counts)
	}
}

func TestDiffRaces(t *testing.T) {
	buggy := loader.NewSite("v1").Add("index.html", `
<a href="javascript:open1()">x</a>
<script>function open1() { document.getElementById("p").style.display = "block"; }</script>
<div id="p" style="display:none"></div>`)
	// v2 guards the lookup inside the handler AND registers it after the
	// element exists (script at the bottom): race gone.
	fixed := loader.NewSite("v2").Add("index.html", `
<div id="p" style="display:none"></div>
<a href="javascript:open1()">x</a>
<script>function open1() { var e = document.getElementById("p"); if (e != null) { e.style.display = "block"; } }</script>`)

	cfg := DefaultConfig(1)
	before := Export(RunConfig(buggy, cfg), 1, nil, false)
	after := Export(RunConfig(fixed, cfg), 1, nil, false)
	gone, introduced := DiffRaces(before, after)
	sort.Strings(gone)
	foundP := false
	for _, loc := range gone {
		if strings.Contains(loc, "#p") {
			foundP = true
		}
	}
	if !foundP {
		t.Errorf("fix not reflected in diff; fixed=%v introduced=%v", gone, introduced)
	}
}

package webracer

import (
	"bytes"
	"reflect"
	"testing"

	"webracer/internal/hb"
	"webracer/internal/loader"
	"webracer/internal/mem"
	"webracer/internal/race"
	"webracer/internal/report"
	"webracer/internal/sitegen"
)

// demoSite carries one instance of each §2 race type.
func demoSite() *loader.Site {
	return loader.NewSite("demo").
		Add("index.html", `
<input type="text" id="depart" />
<script>
function openPanel() {
  var p = document.getElementById("panel");
  p.style.display = "block";
}
</script>
<a href="javascript:openPanel()">Open</a>
<div id="hoverzone" onmouseover="lateFn();">hover</div>
<script src="late.js" async="true"></script>
<iframe id="fr" src="sub.html"></iframe>
<script>
document.getElementById("fr").onload = function() { frameLoaded = 1; };
document.getElementById("depart").value = "City of Departure";
</script>
<div id="panel" style="display:none">panel</div>`).
		Add("late.js", `function lateFn() { lateCalled = 1; }`).
		Add("sub.html", `<p>sub</p>`)
}

func TestRunFindsAllFourRaceTypes(t *testing.T) {
	res := RunConfig(demoSite(), DefaultConfig(1))
	c := res.RawCounts
	if c.Of(report.HTML) == 0 {
		t.Error("no HTML race found")
	}
	if c.Of(report.Function) == 0 {
		t.Error("no function race found")
	}
	if c.Of(report.Variable) == 0 {
		t.Error("no variable race found")
	}
	if c.Of(report.EventDispatch) == 0 {
		t.Error("no event dispatch race found")
	}
}

func TestFiltersReduceReports(t *testing.T) {
	cfg := DefaultConfig(1)
	cfg.Filters = true
	res := RunConfig(demoSite(), cfg)
	if len(res.Reports) >= len(res.RawReports) && len(res.RawReports) > 0 {
		// Filters must drop at least the non-form variable races and
		// multi-dispatch event races the demo generates.
		t.Logf("raw=%d filtered=%d", len(res.RawReports), len(res.Reports))
	}
	for _, r := range res.Reports {
		ty := report.Classify(r)
		if ty == report.Variable && r.Loc.Name != "value" && r.Loc.Name != "checked" {
			t.Errorf("form filter leaked non-form variable race: %v", r)
		}
		if ty == report.EventDispatch && !report.DefaultSingleShot(r.Loc.Name) {
			t.Errorf("single-dispatch filter leaked %v", r)
		}
	}
}

func TestHarmOracleDemoSite(t *testing.T) {
	cfg := DefaultConfig(1)
	cfg.Filters = true
	res := RunConfig(demoSite(), cfg)
	h, err := ClassifyHarmfulParallel(demoSite(), cfg, res, ParallelConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if h.Total() == 0 {
		t.Fatalf("harm oracle found nothing harmful; reports: %v", res.Reports)
	}
	// The unguarded panel lookup must be classified harmful.
	foundPanel := false
	for i, r := range res.Reports {
		if report.Classify(r) == report.HTML && r.Loc.Name == "panel" && h.Harmful[i] {
			foundPanel = true
		}
	}
	if !foundPanel {
		t.Errorf("panel HTML race not classified harmful; evidence: %v", h.Evidence)
	}
}

func TestHarmOracleBenignPoll(t *testing.T) {
	// The Ford pattern is a race but must NOT be classified harmful.
	site := loader.NewSite("ford").Add("index.html", `
<script>
function addPopUp() {
  if (document.getElementById("last") != null) {
    document.getElementById("last").className = "ready";
  } else { setTimeout(addPopUp, 30); }
}
addPopUp();
</script>
<p>a</p><p>b</p>
<div id="last"></div>`)
	cfg := DefaultConfig(1)
	res := RunConfig(site, cfg)
	h, err := ClassifyHarmfulParallel(site, cfg, res, ParallelConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range res.Reports {
		if report.Classify(r) == report.HTML && h.Harmful[i] {
			t.Errorf("guarded poll classified harmful: %v (%v)", r, h.Evidence)
		}
	}
}

func TestReplayVCEquivalence(t *testing.T) {
	cfg := DefaultConfig(1)
	cfg.RecordTrace = true
	res := RunConfig(demoSite(), cfg)
	vc := ReplayVC(res)
	if len(vc) != len(res.RawReports) {
		t.Fatalf("vector-clock replay found %d races, graph found %d", len(vc), len(res.RawReports))
	}
	for i := range vc {
		if vc[i].Loc != res.RawReports[i].Loc || vc[i].Prior.Op != res.RawReports[i].Prior.Op {
			t.Errorf("replay report %d differs: %v vs %v", i, vc[i], res.RawReports[i])
		}
	}
}

// TestLiveVCDetectorMatchesGraph: the online vector-clock oracle produces
// the same reports as the graph oracle, end to end through the browser.
func TestLiveVCDetectorMatchesGraph(t *testing.T) {
	base := RunConfig(demoSite(), DefaultConfig(1))
	cfg := DefaultConfig(1)
	cfg.Detector = DetectorPairwiseVC
	vc := RunConfig(demoSite(), cfg)
	if len(vc.RawReports) != len(base.RawReports) {
		t.Fatalf("live VC found %d races, graph found %d", len(vc.RawReports), len(base.RawReports))
	}
	for i := range vc.RawReports {
		if vc.RawReports[i].Loc != base.RawReports[i].Loc {
			t.Errorf("report %d differs: %v vs %v", i, vc.RawReports[i].Loc, base.RawReports[i].Loc)
		}
	}
}

// TestCrossFrameSharedGlobalForcesVectors: the Fig. 1 site shares a global
// across frames, so its accesses genuinely cross chains: the epoch fast
// path must fall back to full clock vectors there — and still produce the
// graph detector's reports.
func TestCrossFrameSharedGlobalForcesVectors(t *testing.T) {
	site := loader.NewSite("fig1").
		Add("index.html", `<script>x = 1;</script>
<iframe src="a.html"></iframe><iframe src="b.html"></iframe>`).
		Add("a.html", `<script>x = 2;</script>`).
		Add("b.html", `<script>alert(x);</script>`)
	base := RunConfig(site, DefaultConfig(1))
	vc := RunConfig(site, Config{Seed: 1, Explore: true, Detector: DetectorPairwiseVC})
	if len(vc.RawReports) != len(base.RawReports) {
		t.Fatalf("live VC found %d races, graph found %d", len(vc.RawReports), len(base.RawReports))
	}
	for i := range vc.RawReports {
		if vc.RawReports[i].Loc != base.RawReports[i].Loc {
			t.Errorf("report %d differs: %v vs %v", i, vc.RawReports[i].Loc, base.RawReports[i].Loc)
		}
	}
	live := vc.Browser.HB.Mirror
	if live == nil {
		t.Fatal("DetectorPairwiseVC did not mirror the graph into LiveClocks")
	}
	if live.MaterializedClocks() == 0 {
		t.Error("cross-frame shared-global run materialized no clock vectors")
	}
	// Laziness: clocks exist only where sharing forced them, not per op.
	if ops := vc.Ops; live.MaterializedClocks() >= ops {
		t.Errorf("materialized %d clocks for %d ops — lazy path not engaged",
			live.MaterializedClocks(), ops)
	}
}

// TestDefaultConfig pins DefaultConfig to the paper's evaluation
// configuration: exploration on, filters off, the pairwise detector.
func TestDefaultConfig(t *testing.T) {
	got := DefaultConfig(7)
	want := Config{Seed: 7, Explore: true}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("DefaultConfig(7) = %+v, want %+v", got, want)
	}
	if err := got.Validate(); err != nil {
		t.Errorf("DefaultConfig fails Validate: %v", err)
	}
}

func TestAccessSetFindsAtLeastAsMany(t *testing.T) {
	cfg := DefaultConfig(1)
	res := RunConfig(demoSite(), cfg)
	cfg2 := cfg
	cfg2.Detector = DetectorAccessSet
	res2 := RunConfig(demoSite(), cfg2)
	if len(res2.RawReports) < len(res.RawReports) {
		t.Errorf("AccessSet found fewer races (%d) than Pairwise (%d)",
			len(res2.RawReports), len(res.RawReports))
	}
}

func TestDeterminism(t *testing.T) {
	a := RunConfig(demoSite(), DefaultConfig(42))
	b := RunConfig(demoSite(), DefaultConfig(42))
	if len(a.RawReports) != len(b.RawReports) {
		t.Fatalf("same seed, different race counts: %d vs %d", len(a.RawReports), len(b.RawReports))
	}
	for i := range a.RawReports {
		if a.RawReports[i].Loc != b.RawReports[i].Loc {
			t.Errorf("report %d differs across identical runs", i)
		}
	}
}

func TestHarmRunsMultiple(t *testing.T) {
	cfg := DefaultConfig(1)
	cfg.Filters = true
	cfg.HarmRuns = 3
	res := RunConfig(demoSite(), cfg)
	h, err := ClassifyHarmfulParallel(demoSite(), cfg, res, ParallelConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if h.Total() == 0 {
		t.Fatal("multi-run harm oracle found nothing")
	}
	if len(h.Harmful) != len(res.Reports) {
		t.Errorf("verdict vector length %d != reports %d", len(h.Harmful), len(res.Reports))
	}
}

func TestAjaxRacePattern(t *testing.T) {
	spec := sitegen.Spec{Index: 0, Name: "ajax", Paragraphs: 1, AjaxRaces: 1}
	site := sitegen.Generate(spec)
	res := RunConfig(site, DefaultConfig(3))
	found := false
	for _, r := range res.RawReports {
		if report.Classify(r) == report.Variable && r.Loc.Name == "shownPrice0" {
			found = true
		}
	}
	if !found {
		t.Fatalf("AJAX handlers did not race on shownPrice0; reports: %v, errors: %v",
			res.RawReports, res.Errors)
	}
}

func TestRunCorpusSmoke(t *testing.T) {
	cfg := DefaultConfig(1)
	results, err := RunCorpusParallel(8, func(i int) *loader.Site {
		return sitegen.Generate(sitegen.SpecFor(1, i))
	}, cfg, ParallelConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 8 {
		t.Fatalf("got %d results", len(results))
	}
	total := 0
	for _, r := range results {
		total += r.RawCounts.Total()
	}
	if total == 0 {
		t.Error("corpus produced zero races across 8 sites")
	}
}

func TestRunSeedsSweep(t *testing.T) {
	sweep, err := RunSeedsParallel(demoSite(), DefaultConfig(1), 5, ParallelConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if sweep.Seeds != 5 || len(sweep.PerSeed) != 5 {
		t.Fatalf("sweep shape: %+v", sweep)
	}
	stable, _ := sweep.Stable()
	if len(stable) == 0 {
		t.Error("no race stable across seeds — happens-before detection should be schedule-insensitive")
	}
	// Every run found something.
	for i, n := range sweep.PerSeed {
		if n == 0 {
			t.Errorf("seed %d found no races", i)
		}
	}
}

func TestExhaustiveConfig(t *testing.T) {
	site := loader.NewSite("nested").Add("index.html", `
<div id="sub"></div>
<div id="menu"></div>
<script>
document.getElementById("menu").onmouseover = function() {
  document.getElementById("sub").onclick = function() { deep = 1; };
};
</script>`)
	cfg := DefaultConfig(1)
	cfg.Exhaustive = true
	res := RunConfig(site, cfg)
	if res.ExploreStats.Rounds < 2 {
		t.Errorf("exhaustive exploration ran %d rounds, want >= 2", res.ExploreStats.Rounds)
	}
	if v, ok := res.Browser.Top().It.LookupGlobal("deep"); !ok || v.ToNumber() != 1 {
		t.Error("nested handler not reached")
	}
}

// TestExhaustiveImpliesExplore: Exhaustive alone explores, exactly as
// Exhaustive with Explore does.
func TestExhaustiveImpliesExplore(t *testing.T) {
	site := loader.NewSite("nested").Add("index.html", `
<div id="sub"></div>
<div id="menu"></div>
<script>
document.getElementById("menu").onmouseover = function() {
  document.getElementById("sub").onclick = function() { deep = 1; };
};
</script>`)
	alone := RunConfig(site, Config{Seed: 1, Exhaustive: true})
	both := RunConfig(site, Config{Seed: 1, Explore: true, Exhaustive: true})
	if alone.ExploreStats.Rounds == 0 {
		t.Fatal("Exhaustive alone ran no exploration rounds")
	}
	if alone.ExploreStats != both.ExploreStats {
		t.Fatalf("explore stats: %+v alone, %+v with Explore", alone.ExploreStats, both.ExploreStats)
	}
	if a, b := exportBytes(t, alone, 1), exportBytes(t, both, 1); !bytes.Equal(a, b) {
		t.Fatalf("sessions differ:\n%s\n%s", a, b)
	}
}

// TestPairwiseMissVsAccessSet demonstrates the §5.1 limitation on the
// paper's own 3-operation schedule: read(3) · read(1) · write(2) with only
// 1 ⇝ 2 ordered. Pairwise misses the 2–3 race; AccessSet reports it.
func TestPairwiseMissVsAccessSet(t *testing.T) {
	g := hb.NewGraph()
	g.AddNode(3)
	g.Edge(1, 2)
	p := race.NewPairwise(g)
	s := race.NewAccessSet(g)
	loc := mem.VarLoc(99, "e")
	seq := []race.Access{
		{Kind: mem.Read, Loc: loc, Op: 3},
		{Kind: mem.Read, Loc: loc, Op: 1},
		{Kind: mem.Write, Loc: loc, Op: 2},
	}
	for _, a := range seq {
		p.OnAccess(a)
		s.OnAccess(a)
	}
	if len(p.Reports()) != 0 {
		t.Errorf("Pairwise reported %d races; the paper's algorithm misses this one", len(p.Reports()))
	}
	if len(s.Reports()) != 1 {
		t.Errorf("AccessSet reported %d races, want exactly the 2–3 race", len(s.Reports()))
	}
}

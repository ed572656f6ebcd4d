package webracer

import (
	"strings"
	"testing"

	"webracer/internal/loader"
	"webracer/internal/op"
	"webracer/internal/report"
)

// compositeSite is a "realistic" page combining everything at once: frames,
// sync/async/defer scripts, XHR, timers, delayed script insertion, form
// fields, images with handlers, and a monitoring interval.
func compositeSite() *loader.Site {
	return loader.NewSite("megacorp").
		Add("index.html", `
<html><head><title>MegaCorp</title>
<script src="analytics.js" async="true"></script>
<script src="base.js"></script>
</head><body>
<input type="text" id="q" />
<div id="nav" onmouseover="openNav();">Products</div>
<a href="javascript:openCart()">Cart</a>
<img src="hero.jpg" onload="heroShown = 1;" />
<iframe src="promo.html"></iframe>
<script>
var xhr = new XMLHttpRequest();
xhr.onreadystatechange = function() {
  if (xhr.readyState == 4) { inventory = JSON.parse(xhr.responseText).count; }
};
xhr.open("GET", "inventory.json");
xhr.send();

document.addEventListener("DOMContentLoaded", function() {
  var mon = setInterval(function() {
    var imgs = document.getElementsByTagName("img");
    for (var j = 0; j < imgs.length; j++) {
      imgs[j].onload = function() { tracked = (typeof tracked == 'undefined') ? 1 : tracked + 1; };
    }
  }, 15);
  setTimeout(function() { clearInterval(mon); }, 300);
});

function openCart() {
  var p = document.getElementById("cartpanel");
  p.style.display = "block";
}
document.getElementById("q").value = "search MegaCorp";

var s = document.createElement("script");
s.src = "widgets.js";
document.body.appendChild(s);
</script>
<p>products…</p><p>deals…</p>
<div id="cartpanel" style="display:none">cart</div>
</body></html>`).
		Add("base.js", `pageEpoch = 1;`).
		Add("analytics.js", `beacons = (typeof beacons == 'undefined') ? 1 : beacons + 1;`).
		Add("widgets.js", `function openNav() { navOpen = 1; }`).
		Add("promo.html", `<script>promoReady = 1;</script><p>50% off</p>`).
		Add("inventory.json", `{"count": 7}`)
}

// TestCompositeSiteEndToEnd drives the composite page through the full
// pipeline and checks cross-cutting invariants.
func TestCompositeSiteEndToEnd(t *testing.T) {
	cfg := DefaultConfig(3)
	cfg.RecordTrace = true
	res := RunConfig(compositeSite(), cfg)
	b := res.Browser

	// The page must have finished loading and computed its state.
	if !b.Top().Loaded() {
		t.Fatal("window load never fired")
	}
	if v, ok := b.Top().It.LookupGlobal("inventory"); !ok || v.ToNumber() != 7 {
		t.Errorf("XHR pipeline broken: inventory=%v ok=%v (errors %v)", v, ok, res.Errors)
	}
	// The monitor's onload assignment REPLACES the attribute handler
	// (both write slot 0 — the very interference the dispatch race
	// reports), so whichever write was last before the load wins.
	_, heroRan := b.Top().It.LookupGlobal("heroShown")
	_, trackerRan := b.Top().It.LookupGlobal("tracked")
	if !heroRan && !trackerRan {
		t.Error("no image load handler ran at all")
	}
	if len(b.Windows()) != 2 {
		t.Errorf("windows = %d, want 2", len(b.Windows()))
	}

	// Races: expect at least the function race (openNav via delayed
	// widgets.js), the HTML race (cartpanel), the form race (q), and the
	// Gomez dispatch race (hero.jpg's load slot).
	c := res.RawCounts
	if c.Of(report.Function) == 0 {
		t.Error("missing function race on openNav")
	}
	if c.Of(report.HTML) == 0 {
		t.Error("missing HTML race on cartpanel")
	}
	if c.Of(report.Variable) == 0 {
		t.Error("missing variable race on q's value")
	}
	if c.Of(report.EventDispatch) == 0 {
		t.Error("missing dispatch race on the image load slot")
	}

	// Every reported race must satisfy the §5.1 definition against the
	// session's own happens-before graph.
	for _, r := range res.RawReports {
		if !b.HB.Concurrent(r.Prior.Op, r.Current.Op) {
			t.Errorf("ordered pair reported: %v", r)
		}
	}

	// Sanity on the operation structure: parse ops exist for static
	// elements, script ops for every script, handler ops from dispatches.
	st := b.Stats()
	if st.OpsByKind[op.KindParse.String()] < 10 {
		t.Errorf("parse ops = %d, suspiciously low", st.OpsByKind["parse"])
	}
	if st.OpsByKind[op.KindScript.String()] < 4 {
		t.Errorf("script ops = %d, want inline+base+analytics+widgets+promo", st.OpsByKind["exe"])
	}
	if st.Edges == 0 || st.Fetches < 6 {
		t.Errorf("stats: %+v", st)
	}

	// The trace and the graph agree with the replayed VC analysis.
	vc := ReplayVC(res)
	if len(vc) != len(res.RawReports) {
		t.Errorf("VC replay found %d races, run found %d", len(vc), len(res.RawReports))
	}

	// Harm oracle: the unguarded cart panel and/or the openCart function
	// race must come out harmful under the adversarial schedule.
	cfg2 := cfg
	cfg2.Filters = true
	res2 := RunConfig(compositeSite(), cfg2)
	h, err := ClassifyHarmfulParallel(compositeSite(), cfg2, res2, ParallelConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if h.Total() == 0 {
		t.Errorf("no harmful races on the composite site; reports: %v", res2.Reports)
	}

	// Session export round trip.
	s := Export(res, cfg.Seed, nil, true)
	var sb strings.Builder
	if err := s.WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	back, err := ReadSession(strings.NewReader(sb.String()))
	if err != nil || len(back.Races) != len(res.Reports) {
		t.Errorf("session round trip: %v, races %d vs %d", err, len(back.Races), len(res.Reports))
	}
}

// TestCompositeDeterminismAcrossDetectors: the pairwise/VC/AccessSet
// detectors agree on the composite page (AccessSet may only add races).
func TestCompositeDeterminismAcrossDetectors(t *testing.T) {
	base := RunConfig(compositeSite(), DefaultConfig(3))
	vcCfg := DefaultConfig(3)
	vcCfg.Detector = DetectorPairwiseVC
	vc := RunConfig(compositeSite(), vcCfg)
	asCfg := DefaultConfig(3)
	asCfg.Detector = DetectorAccessSet
	as := RunConfig(compositeSite(), asCfg)

	if len(vc.RawReports) != len(base.RawReports) {
		t.Errorf("VC oracle disagrees: %d vs %d", len(vc.RawReports), len(base.RawReports))
	}
	if len(as.RawReports) < len(base.RawReports) {
		t.Errorf("AccessSet found fewer races: %d vs %d", len(as.RawReports), len(base.RawReports))
	}
}

package browser

import (
	"math/rand"
	"testing"

	"webracer/internal/loader"
)

// Coverage for the breadth of the DOM/window bindings that the figure and
// rule tests don't already exercise.

func TestDocumentCollections(t *testing.T) {
	site := loader.NewSite("collections").Add("index.html", `
<form id="f1"></form>
<img src="a.png" /><img src="b.png" />
<a href="http://x">link</a><a>anchor-no-href</a>
<script>
nForms = document.forms.length;
nImages = document.images.length;
nLinks = document.links.length;
nScripts = document.scripts.length;
firstFormId = document.forms[0].id;
</script>`)
	b := runSite(t, site, Config{Seed: 1})
	if globalNum(t, b, "nForms") != 1 || globalNum(t, b, "nImages") != 2 ||
		globalNum(t, b, "nLinks") != 1 {
		t.Errorf("collections wrong: forms=%v images=%v links=%v",
			globalNum(t, b, "nForms"), globalNum(t, b, "nImages"), globalNum(t, b, "nLinks"))
	}
	if globalNum(t, b, "nScripts") < 1 {
		t.Error("scripts collection empty")
	}
	if globalStr(t, b, "firstFormId") != "f1" {
		t.Error("collection element wrapper broken")
	}
}

func TestAttributesAPI(t *testing.T) {
	site := loader.NewSite("attrs").Add("index.html", `
<div id="d" title="orig" data-x="1"></div>
<script>
var d = document.getElementById("d");
t1 = d.getAttribute("title");
has = d.hasAttribute("data-x") ? 1 : 0;
hasNot = d.hasAttribute("nope") ? 1 : 0;
d.setAttribute("title", "changed");
t2 = d.title;
missing = d.getAttribute("never") === null ? 1 : 0;
</script>`)
	b := runSite(t, site, Config{Seed: 1})
	if globalStr(t, b, "t1") != "orig" || globalStr(t, b, "t2") != "changed" {
		t.Error("get/setAttribute broken")
	}
	if globalNum(t, b, "has") != 1 || globalNum(t, b, "hasNot") != 0 {
		t.Error("hasAttribute broken")
	}
	if globalNum(t, b, "missing") != 1 {
		t.Error("getAttribute of absent attr should be null")
	}
}

func TestTextContentAndInnerHTMLReads(t *testing.T) {
	site := loader.NewSite("text").Add("index.html", `
<div id="d"><b>bold</b> and plain</div>
<script>
txt = document.getElementById("d").textContent;
html = document.getElementById("d").innerHTML;
document.getElementById("d").textContent = "replaced";
after = document.getElementById("d").textContent;
</script>`)
	b := runSite(t, site, Config{Seed: 1})
	if globalStr(t, b, "txt") != "bold and plain" {
		t.Errorf("textContent = %q", globalStr(t, b, "txt"))
	}
	if got := globalStr(t, b, "html"); got != "<b>bold</b> and plain" {
		t.Errorf("innerHTML = %q", got)
	}
	if globalStr(t, b, "after") != "replaced" {
		t.Error("textContent assignment broken")
	}
}

func TestNodeNavigation(t *testing.T) {
	site := loader.NewSite("nav").Add("index.html", `
<ul id="list"><li id="a"></li><li id="b"></li></ul>
<script>
var list = document.getElementById("list");
first = list.firstChild.id;
last = list.lastChild.id;
parentTag = document.getElementById("a").parentNode.tagName;
kidCount = list.childNodes.length;
tag = list.tagName;
ntype = list.nodeType;
</script>`)
	b := runSite(t, site, Config{Seed: 1})
	if globalStr(t, b, "first") != "a" || globalStr(t, b, "last") != "b" {
		t.Error("first/lastChild broken")
	}
	if globalStr(t, b, "parentTag") != "UL" || globalStr(t, b, "tag") != "UL" {
		t.Error("tagName/parentNode broken")
	}
	if globalNum(t, b, "kidCount") != 2 || globalNum(t, b, "ntype") != 1 {
		t.Error("childNodes/nodeType broken")
	}
}

func TestReadyStateTransitions(t *testing.T) {
	site := loader.NewSite("ready").Add("index.html", `
<script>
early = document.readyState;
document.addEventListener("DOMContentLoaded", function() { mid = document.readyState; });
window.onload = function() { late = document.readyState; };
</script>`)
	b := runSite(t, site, Config{Seed: 1})
	if globalStr(t, b, "early") != "loading" {
		t.Errorf("early readyState = %q", globalStr(t, b, "early"))
	}
	if globalStr(t, b, "mid") != "interactive" {
		t.Errorf("mid readyState = %q", globalStr(t, b, "mid"))
	}
	if globalStr(t, b, "late") != "complete" {
		t.Errorf("late readyState = %q", globalStr(t, b, "late"))
	}
}

func TestDocumentWrite(t *testing.T) {
	site := loader.NewSite("docwrite").Add("index.html", `
<body>
<script>
document.write("<div id='written'>w</div>");
found = document.getElementById("written") !== null ? 1 : 0;
</script>
</body>`)
	b := runSite(t, site, Config{Seed: 1})
	if globalNum(t, b, "found") != 1 {
		t.Error("document.write content not reachable")
	}
}

func TestCookieAndTitle(t *testing.T) {
	site := loader.NewSite("misc").Add("index.html", `
<head><title>My Page</title></head>
<body>
<script>
document.cookie = "session=abc";
c = document.cookie;
ttl = document.title;
u = document.URL;
</script>
</body>`)
	b := runSite(t, site, Config{Seed: 1})
	if globalStr(t, b, "c") != "session=abc" {
		t.Error("cookie round trip broken")
	}
	if globalStr(t, b, "ttl") != "My Page" {
		t.Errorf("title = %q", globalStr(t, b, "ttl"))
	}
	if globalStr(t, b, "u") != "index.html" {
		t.Errorf("URL = %q", globalStr(t, b, "u"))
	}
}

func TestLocationAndNavigator(t *testing.T) {
	site := loader.NewSite("loc").Add("index.html", `
<script>
href = location.href;
ua = navigator.userAgent;
viaWindow = window.location.href;
</script>`)
	b := runSite(t, site, Config{Seed: 1})
	if globalStr(t, b, "href") != "index.html" || globalStr(t, b, "viaWindow") != "index.html" {
		t.Error("location broken")
	}
	if globalStr(t, b, "ua") == "" {
		t.Error("navigator.userAgent empty")
	}
}

func TestOffsetMetricsZero(t *testing.T) {
	site := loader.NewSite("metrics").Add("index.html", `
<div id="d">x</div>
<script>m = document.getElementById("d").offsetWidth + document.getElementById("d").clientHeight;</script>`)
	b := runSite(t, site, Config{Seed: 1})
	if globalNum(t, b, "m") != 0 {
		t.Error("layout metrics should be 0 in the simulation")
	}
}

func TestExpandoProperties(t *testing.T) {
	// Pages stash state on DOM wrappers; expandos persist because the
	// wrapper is cached per node.
	site := loader.NewSite("expando").Add("index.html", `
<div id="d"></div>
<script>
document.getElementById("d").custom = 42;
later = document.getElementById("d").custom;
</script>`)
	b := runSite(t, site, Config{Seed: 1})
	if globalNum(t, b, "later") != 42 {
		t.Error("expando property lost between lookups")
	}
}

// TestMathRandomSequence: Math.random draws the session seed's sequence
// from its first call, in the top window and in frames alike (one
// source per browser, seeded on first use).
func TestMathRandomSequence(t *testing.T) {
	site := loader.NewSite("random").
		Add("index.html", `<script>r0 = Math.random();</script><iframe src="f.html"></iframe>`).
		Add("f.html", `<script>r1 = Math.random(); r2 = Math.random();</script>`)
	b := runSite(t, site, Config{Seed: 7})
	if len(b.Windows()) != 2 {
		t.Fatalf("%d windows, want 2", len(b.Windows()))
	}
	want := rand.New(rand.NewSource(7))
	for i, name := range []string{"r0", "r1", "r2"} {
		w := b.Windows()[min(i, 1)]
		v, ok := w.It.LookupGlobal(name)
		if got, wv := v.ToNumber(), want.Float64(); !ok || got != wv {
			t.Errorf("%s = %v (set %v), want %v", name, got, ok, wv)
		}
	}
}

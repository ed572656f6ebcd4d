package webracer

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"webracer/internal/loader"
)

// serialOrderSite is a page whose scripts touch the builtin realm out of
// creation order: builtin globals, builtin members (Math.*, JSON.*, Date,
// String.fromCharCode, Array.isArray, Object.keys), browser globals and
// event methods, some first in an iframe, some only in a late timer, one
// event method saved and called after its dispatch, one builtin shadowed
// by a hoisted var and one enumerated. Every object, closure and binding
// the run allocates carries a serial that names its memory locations, so
// a realm that builds any of these in a different order than the page
// touches them moves a location name in the access stream.
func serialOrderSite() *loader.Site {
	return loader.NewSite("serial-order").
		Add("index.html", `<script>
var r = Math.max(3, Math.floor(2.5));
var saved = null;
var keys = Object.keys(Math).join(",");
var n = 0;
for (var k in JSON) { n = n + 1; }
function late() {
  var t = new Date();
  var s = JSON.stringify({a: Math.abs(-1), b: Math.PI > 3});
  var p = JSON.parse(s);
  console.log(s, p.a, parseInt("42px"), String.fromCharCode(72, 105));
  if (saved) { saved(); }
  Math.abs.tag = JSON.parse.tag = 1;
  Date.now.seen = String.fromCharCode.seen = Array.isArray.seen = true;
  window.lateDone = Array.isArray([t.getTime()]) && Date.now() >= 0;
}
setTimeout(late, 400);
</script>
<button id="b" onclick="var f = event.stopImmediatePropagation; f.hit = 2; clicks = (window.clicks || 0) + 1;">go</button>
<iframe src="frame.html"></iframe>
<script>
var parseFloat;
parseInt.seen = 1;
document.getElementById("b").addEventListener("mouseover", Math.ceil);
document.getElementById("b").addEventListener("click", function (e) {
  saved = e.preventDefault;
  e.stopPropagation();
  e.stopPropagation.hit = saved.hit = 1;
  setTimeout(function () { saved(); Math.exp(1); }, 10);
});
window.onload = function (e) {
  var q = e.type + Math.round(1.4) + Math.sqrt(16);
  navigator.userAgent;
  location.href;
  setInterval.mark = console.warn.mark = Image.mark = 1;
  console.warn(q, isNaN(parseFloat));
};
</script>`).
		Add("frame.html", `<script>
var m = Math.min(4, 2);
setTimeout(function () {
  var e = encodeURIComponent("a b") + Number("7") + Boolean(1);
  var o = Object.keys({z: 1, y: 2});
  Math.random.r = Object.keys.r = Math.random();
  window.parent.frameDone = JSON.stringify(o) + e;
}, 600);
</script>
<div id="d" onclick="event.preventDefault(); event.preventDefault.x = JSON.stringify.x = 3; d2 = Math.ceil(1.2);">x</div>`)
}

// TestGoldenSerialOrder pins the serial-order fixture's access stream and
// exported session, trace included. Regenerate deliberately with
//
//	go test -run TestGoldenSerialOrder -update .
func TestGoldenSerialOrder(t *testing.T) {
	cfg := DefaultConfig(5)
	cfg.RecordTrace = true
	res := RunConfig(serialOrderSite(), cfg)
	sess, err := json.MarshalIndent(Export(res, 5, nil, true), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got := append([]byte(accessStreamLine("serial-order", res)), sess...)
	got = append(got, '\n')

	// Not .json: the canonical-fingerprint fuzzer seeds itself from the
	// session goldens, testdata/golden/*.json.
	path := filepath.Join("testdata", "golden", "serial-order.txt")
	if *updateGolden {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("serial-order fixture drifted from %s:\ngot:\n%s", path, got)
	}
}

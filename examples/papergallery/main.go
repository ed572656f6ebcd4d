// Papergallery runs the paper's five motivating examples (Figures 1–5)
// through the detector and shows, for each, the race the paper describes.
//
//	go run ./examples/papergallery
package main

import (
	"fmt"

	"webracer"
	"webracer/internal/loader"
	"webracer/internal/report"
)

type figure struct {
	name string
	desc string
	site *loader.Site
	want report.Type
}

func figures() []figure {
	return []figure{
		{
			name: "Figure 1 — variable race between iframes",
			desc: "a.html writes x while b.html reads it; the frames load in either order",
			want: report.Variable,
			site: loader.NewSite("fig1").
				Add("index.html", `<script>x = 1;</script>
<iframe src="a.html"></iframe>
<iframe src="b.html"></iframe>`).
				Add("a.html", `<script>x = 2;</script>`).
				Add("b.html", `<script>alert(x);</script>`),
		},
		{
			name: "Figure 2 — form value race (southwest.com)",
			desc: "a late script overwrites whatever the user typed into the box",
			want: report.Variable,
			site: loader.NewSite("fig2").
				Add("index.html", `<input type="text" id="depart" />
<script>document.getElementById("depart").value = "City of Departure";</script>`),
		},
		{
			name: "Figure 3 — HTML race (valero.com)",
			desc: "clicking Send Email dereferences a div parsed later in the page",
			want: report.HTML,
			site: loader.NewSite("fig3").
				Add("index.html", `
<script>
function show(emailTo) {
  var v = document.getElementById("dw");
  v.style.display = "block";
}
</script>
<a href="javascript:show('x@x.com')">Send Email</a>
<div id="dw" style="display:none">email form</div>`),
		},
		{
			name: "Figure 4 — function race (Mozilla unit test)",
			desc: "an iframe's onload schedules doNextStep before its declaring script parses",
			want: report.Function,
			site: loader.NewSite("fig4").
				Add("index.html", `
<iframe id="i" src="sub.html" onload="setTimeout(doNextStep, 20)"></iframe>
<script>function doNextStep() { done = 1; }</script>`).
				Add("sub.html", `<p>nested</p>`),
		},
		{
			name: "Figure 5 — event dispatch race",
			desc: "the iframe's load may fire before the script installs its onload handler",
			want: report.EventDispatch,
			site: loader.NewSite("fig5").
				Add("index.html", `
<iframe id="i" src="a.html"></iframe>
<script>document.getElementById("i").onload = function() { ran = 1; };</script>`).
				Add("a.html", `<p>nested</p>`),
		},
	}
}

func main() {
	for _, f := range figures() {
		fmt.Println(f.name)
		fmt.Println("  ", f.desc)
		res := webracer.RunConfig(f.site, webracer.DefaultConfig(1))
		found := false
		for _, r := range res.Reports {
			if report.Classify(r) == f.want {
				fmt.Printf("   ✓ detected: %s\n", r)
				found = true
				break
			}
		}
		if !found {
			fmt.Printf("   ✗ NOT detected (%d other reports)\n", len(res.Reports))
		}
		fmt.Println()
	}
}

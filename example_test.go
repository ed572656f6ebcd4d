package webracer_test

import (
	"fmt"

	"webracer"
	"webracer/internal/loader"
	"webracer/internal/report"
)

// ExampleRunConfig detects the paper's Fig. 2 race in a three-line page.
func ExampleRunConfig() {
	site := loader.NewSite("example").Add("index.html", `
<input type="text" id="depart" />
<script>document.getElementById("depart").value = "City of Departure";</script>`)

	res := webracer.RunConfig(site, webracer.DefaultConfig(1))
	for _, r := range res.Reports {
		fmt.Println(report.Classify(r), "race on the form value — two unordered writes")
	}
	// Output:
	// Variable race on the form value — two unordered writes
}

// ExampleClassifyHarmfulParallel shows the adversarial-replay harm oracle: the
// unguarded lookup crashes when the user clicks early, so the race is
// harmful.
func ExampleClassifyHarmfulParallel() {
	site := loader.NewSite("example").Add("index.html", `
<script>
function openPanel() {
  document.getElementById("panel").style.display = "block";
}
</script>
<a href="javascript:openPanel()">Open</a>
<div id="panel" style="display:none"></div>`)

	cfg := webracer.DefaultConfig(1)
	res := webracer.RunConfig(site, cfg)
	harm, err := webracer.ClassifyHarmfulParallel(site, cfg, res, webracer.ParallelConfig{})
	if err != nil {
		panic(err)
	}
	for i, r := range res.Reports {
		if report.Classify(r) == report.HTML {
			fmt.Printf("HTML race on %s, harmful: %v\n", r.Loc, harm.Harmful[i])
		}
	}
	// Output:
	// HTML race on elem #panel, harmful: true
}

// ExampleDiffRaces compares two versions of a site, the regression-gate
// workflow.
func ExampleDiffRaces() {
	buggy := loader.NewSite("v1").Add("index.html", `
<div id="hover" onmouseover="boost();">deals</div>
<script src="late.js" async="true"></script>`).
		Add("late.js", `function boost() { boosted = 1; }`)
	fixedSite := loader.NewSite("v2").Add("index.html", `
<script>function boost() { boosted = 1; }</script>
<div id="hover" onmouseover="boost();">deals</div>`)

	before := webracer.Export(webracer.RunConfig(buggy, webracer.DefaultConfig(1)), 1, nil, false)
	after := webracer.Export(webracer.RunConfig(fixedSite, webracer.DefaultConfig(1)), 1, nil, false)
	fixed, introduced := webracer.DiffRaces(before, after)
	fmt.Printf("fixed %d race location(s), introduced %d\n", len(fixed), len(introduced))
	// Output:
	// fixed 1 race location(s), introduced 0
}

// Example_advise prints the remediation hint for a function race.
func Example_advise() {
	site := loader.NewSite("example").Add("index.html", `
<div onmouseover="openMenu();">menu</div>
<script src="menu.js" async="true"></script>`).
		Add("menu.js", `function openMenu() { open = 1; }`)

	res := webracer.RunConfig(site, webracer.DefaultConfig(1))
	for _, r := range res.Reports {
		if report.Classify(r) == report.Function {
			fmt.Println(report.Advise(r)[:59], "…")
		}
	}
	// Output:
	// openMenu may be invoked before its declaring script execute …
}

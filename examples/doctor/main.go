// Doctor runs the full diagnostic pipeline on one page: detect races,
// classify harmfulness via adversarial replay, validate each race by
// observing both access orders across perturbed schedules, and print a
// suggested remediation — the tooling workflow §9 sketches as future work
// ("further automating the detection and possibly remediation of data
// races in Web applications").
//
//	go run ./examples/doctor
package main

import (
	"fmt"
	"os"

	"webracer"
	"webracer/internal/loader"
	"webracer/internal/report"
)

func site() *loader.Site {
	return loader.NewSite("clinic").
		Add("index.html", `
<html><body>
  <input type="text" id="search" />
  <div id="hero" onmouseover="rotateHero();">promo</div>
  <a href="javascript:openHelp()">Help</a>

  <script src="widgets.js" async="true"></script>
  <script>
    function openHelp() {
      document.getElementById("helppanel").style.display = "block";
    }
    document.getElementById("search").value = "What are you looking for?";
  </script>

  <div id="helppanel" style="display:none">help text</div>
</body></html>`).
		Add("widgets.js", `function rotateHero() { heroRotations = (typeof heroRotations == 'undefined') ? 1 : heroRotations + 1; }`)
}

func main() {
	cfg := webracer.DefaultConfig(1)
	cfg.Filters = true
	cfg.HarmRuns = 2

	res := webracer.RunConfig(site(), cfg)
	harm, err := webracer.ClassifyHarmfulParallel(site(), cfg, res, webracer.ParallelConfig{})
	if err != nil {
		fmt.Fprintln(os.Stderr, "doctor:", err)
		os.Exit(1)
	}

	fmt.Printf("%s: %d race(s) after filtering (%d raw), %d harmful\n\n",
		res.Site, len(res.Reports), len(res.RawReports), harm.Total())

	for i, r := range res.Reports {
		status := "benign"
		if harm.Harmful[i] {
			status = "HARMFUL"
		}
		v := webracer.ValidateRace(site(), cfg, r, 6)
		fmt.Printf("%d. %s race on %s  [%s]\n", i+1, report.Classify(r), r.Loc, status)
		fmt.Printf("   pair:      %s  ↔  %s\n", r.Prior.Desc, r.Current.Desc)
		fmt.Printf("   schedules: %s\n", v)
		fmt.Printf("   fix:       %s\n\n", report.Advise(r))
	}

	st := res.Browser.Stats()
	fmt.Printf("session: %d ops (%d parse, %d script, %d handler), %d happens-before edges, %.1fms virtual time\n",
		st.Ops, st.OpsByKind["parse"], st.OpsByKind["exe"], st.OpsByKind["handler"],
		st.Edges, st.VirtualTime)
}

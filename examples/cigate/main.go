// Cigate shows the developer workflow the paper anticipates ("we expect
// WEBRACER to be even more effective for a developer debugging her own
// site"): gate a site's CI on harmful races.
//
// The example analyzes two versions of the same page — a buggy one and the
// fixed one — produces a session file for each, diffs them, and exits
// non-zero if the current version still has harmful races:
//
//	go run ./examples/cigate
package main

import (
	"fmt"
	"os"

	"webracer"
	"webracer/internal/loader"
	"webracer/internal/report"
)

func buggy() *loader.Site {
	return loader.NewSite("shop-v1").Add("index.html", `
<a href="javascript:openCart()">Cart</a>
<script>
function openCart() {
  var p = document.getElementById("cartpanel");
  p.style.display = "block";
}
</script>
<p>... products ...</p>
<div id="cartpanel" style="display:none">cart</div>`)
}

// fixed repairs both races v1 carries: the script moves above the link so
// openCart is always declared before any click (no function race can be
// harmful), and the handler guards the panel lookup (no crash if the panel
// has not parsed).
func fixed() *loader.Site {
	return loader.NewSite("shop-v2").Add("index.html", `
<script>
function openCart() {
  var p = document.getElementById("cartpanel");
  if (p == null) { return; } // guard: panel may not have parsed yet
  p.style.display = "block";
}
</script>
<a href="javascript:openCart()">Cart</a>
<p>... products ...</p>
<div id="cartpanel" style="display:none">cart</div>`)
}

// analyze runs detection + harm classification and returns the session.
func analyze(site *loader.Site) (*webracer.Session, int) {
	cfg := webracer.DefaultConfig(1)
	cfg.Filters = true
	res := webracer.RunConfig(site, cfg)
	harm, err := webracer.ClassifyHarmfulParallel(site, cfg, res, webracer.ParallelConfig{})
	if err != nil {
		fmt.Fprintln(os.Stderr, "cigate:", err)
		os.Exit(2)
	}
	return webracer.Export(res, cfg.Seed, harm, false), harm.Total()
}

func main() {
	before, harmfulBefore := analyze(buggy())
	after, harmfulAfter := analyze(fixed())

	fmt.Printf("v1 (%s): %d race(s), %d harmful\n", before.Site, len(before.Races), harmfulBefore)
	for _, r := range before.Races {
		mark := ""
		if r.Harmful != nil && *r.Harmful {
			mark = "  [HARMFUL]"
		}
		fmt.Printf("   %-13s %s%s\n", r.Type, r.Loc, mark)
	}
	fmt.Printf("v2 (%s): %d race(s), %d harmful\n", after.Site, len(after.Races), harmfulAfter)
	for _, r := range after.Races {
		fmt.Printf("   %-13s %s\n", r.Type, r.Loc)
	}

	gone, introduced := webracer.DiffRaces(before, after)
	fmt.Printf("\ndiff v1 → v2: %d race location(s) fixed, %d introduced\n", len(gone), len(introduced))
	for _, loc := range gone {
		fmt.Println("   fixed:", loc)
	}

	// The guard makes the race harmless, though the happens-before race
	// remains reported (data-dependence synchronization, §6.3); the gate
	// keys on harmfulness.
	if harmfulAfter > 0 {
		fmt.Println("\nCI gate: FAIL — harmful races remain")
		os.Exit(1)
	}
	fmt.Println("\nCI gate: PASS — remaining races are benign",
		"("+report.Summary(countsOf(after))+")")
}

func countsOf(s *webracer.Session) report.Counts {
	var c report.Counts
	for _, r := range s.Races {
		for _, t := range report.Types {
			if t.String() == r.Type {
				c[t]++
			}
		}
	}
	return c
}

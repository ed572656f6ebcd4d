// Quickstart: detect a race in a ten-line page.
//
// The page sets a text box's hint value from a script that loads after the
// box — the Southwest lost-input bug of the paper's Fig. 2. Automatic
// exploration types into the box; the detector reports the write-write race
// on the box's value.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"os"

	"webracer"
	"webracer/internal/loader"
	"webracer/internal/report"
)

func main() {
	site := loader.NewSite("quickstart").Add("index.html", `
<html><body>
  <input type="text" id="depart" />
  <p>...the rest of the page takes a while to arrive...</p>
  <script>
    document.getElementById("depart").value = "City of Departure";
  </script>
</body></html>`)

	res := webracer.RunConfig(site, webracer.DefaultConfig(1))

	fmt.Printf("loaded %q: %d operations, %d race(s)\n\n", res.Site, res.Ops, len(res.Reports))
	for _, r := range res.Reports {
		fmt.Printf("%-13s %s\n", report.Classify(r).String()+" race:", r.Loc)
		fmt.Printf("   first:  %s\n", r.Prior)
		fmt.Printf("   second: %s\n\n", r.Current)
	}

	// The harm oracle re-runs the page with an eager user and a slow
	// network and watches for erased input.
	h, err := webracer.ClassifyHarmfulParallel(site, webracer.DefaultConfig(1), res, webracer.ParallelConfig{})
	if err != nil {
		fmt.Fprintln(os.Stderr, "quickstart:", err)
		os.Exit(1)
	}
	fmt.Printf("harmful races: %d\n", h.Total())
	for _, e := range h.Evidence {
		fmt.Println("  ", e)
	}
}

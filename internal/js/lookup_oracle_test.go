package js_test

import (
	"testing"

	"webracer"
	"webracer/internal/js"
	"webracer/internal/loader"
	"webracer/internal/sitegen"
)

// TestSlotLookupMatchesNameWalk runs full detections of corpus pages
// 0–199, the sched, fault and stress pages and the paper's figures, and
// checks every variable lookup the interpreter makes: the binding the
// parse-time Addr leads to must be the one a walk of the scope chain by
// name finds.
func TestSlotLookupMatchesNameWalk(t *testing.T) {
	var sites []*loader.Site
	for i := 0; i < 200; i++ {
		sites = append(sites, sitegen.Generate(sitegen.SpecFor(1, i)))
	}
	for i := 0; i < 4; i++ {
		sites = append(sites, sitegen.Generate(sitegen.SchedSpec(i)), sitegen.Generate(sitegen.FaultSpec(i)))
	}
	sites = append(sites, sitegen.Generate(sitegen.StressSpec(0)), sitegen.Fig1(), sitegen.Fig4())

	check, restore := js.CheckLookups()
	defer restore()
	for _, site := range sites {
		webracer.RunConfig(site, webracer.DefaultConfig(1))
	}
	if check.Lookups == 0 {
		t.Fatal("no variable lookup was checked")
	}
	if n := len(check.Mismatches); n > 0 {
		t.Fatalf("%d of %d lookups found another binding than the name walk, first: %q",
			n, check.Lookups, check.Mismatches[0])
	}
	t.Logf("%d lookups checked", check.Lookups)
}

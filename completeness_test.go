package webracer

import (
	"testing"

	"webracer/internal/mem"
	"webracer/internal/report"
	"webracer/internal/sitegen"
)

// TestDetectionCompleteness checks the detector against sitegen's ground
// truth: for a site with a known number of planted instances of each
// pattern, the detector must report at least that many races of the
// corresponding type — the property the whole Table 1/2 reproduction rests
// on.
func TestDetectionCompleteness(t *testing.T) {
	spec := sitegen.Spec{
		Index:      3,
		Name:       "ground-truth",
		Paragraphs: 4,
		DecorImgs:  1,

		HTMLHarmful: 3,
		HTMLBenign:  2,
		FordPolls:   5,

		FuncHarmful: 2,
		FuncBenign:  2,

		FormHarmful: 1,
		FormGuarded: 1,

		PlainVars: 6,

		GomezImages:  4,
		DelayedMenus: 3,

		IframePairs: 1,
	}
	site := sitegen.Generate(spec)
	res := RunConfig(site, DefaultConfig(5))

	counts := res.RawCounts
	// HTML: harmful lookups + benign guarded + ford polls (each id races).
	wantHTML := spec.HTMLHarmful + spec.HTMLBenign + spec.FordPolls
	if got := counts.Of(report.HTML); got < wantHTML {
		t.Errorf("HTML races = %d, want >= %d (planted)", got, wantHTML)
	}
	// Function: each harmful + benign handler/declaration pair.
	wantFunc := spec.FuncHarmful + spec.FuncBenign
	if got := counts.Of(report.Function); got < wantFunc {
		t.Errorf("Function races = %d, want >= %d", got, wantFunc)
	}
	// Variable: plain counters + form fields + frame pair.
	wantVar := spec.PlainVars + spec.FormHarmful + spec.FormGuarded + spec.IframePairs
	if got := counts.Of(report.Variable); got < wantVar {
		t.Errorf("Variable races = %d, want >= %d", got, wantVar)
	}
	// EventDispatch: each Gomez image slot + each delayed menu slot.
	wantDisp := spec.GomezImages + spec.DelayedMenus
	if got := counts.Of(report.EventDispatch); got < wantDisp {
		t.Errorf("EventDispatch races = %d, want >= %d", got, wantDisp)
	}

	// Filters must keep the Gomez races (single-shot load) and the one
	// unguarded form race, and drop the guarded one.
	filtered := report.Apply(res.RawReports, report.FormFilter{}, report.SingleDispatchFilter{})
	fc := report.Count(filtered)
	if got := fc.Of(report.EventDispatch); got < spec.GomezImages {
		t.Errorf("filtered dispatch races = %d, want >= %d (Gomez survives)", got, spec.GomezImages)
	}
	if got := fc.Of(report.EventDispatch); got >= counts.Of(report.EventDispatch) {
		t.Errorf("delayed-menu races not filtered: %d of %d", got, counts.Of(report.EventDispatch))
	}
	formRaces := 0
	for _, r := range filtered {
		if report.Classify(r) == report.Variable {
			formRaces++
			if r.Loc.Name != "value" && r.Loc.Name != "checked" {
				t.Errorf("non-form variable race survived the filter: %v", r)
			}
		}
	}
	if formRaces < spec.FormHarmful {
		t.Errorf("filtered form races = %d, want >= %d", formRaces, spec.FormHarmful)
	}
}

// TestDetectionCompletenessPerLocationCap: raw counts never exceed one race
// per location (footnote 13), which keeps the per-pattern accounting above
// meaningful.
func TestDetectionCompletenessPerLocationCap(t *testing.T) {
	site := sitegen.Generate(sitegen.SpecFor(1, 40))
	res := RunConfig(site, DefaultConfig(1))
	seen := map[mem.Loc]int{}
	for _, r := range res.RawReports {
		seen[r.Loc]++
		if seen[r.Loc] > 1 {
			t.Fatalf("location %v reported %d times", r.Loc, seen[r.Loc])
		}
	}
}

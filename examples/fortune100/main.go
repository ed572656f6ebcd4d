// Fortune100 runs the detector over the synthetic corpus — the stand-in
// for the paper's Fortune 100 home-page study (§6) — and prints a compact
// per-site report plus Table-1-style aggregates.
//
//	go run ./examples/fortune100 [-sites 20] [-seed 1] [-filters]
package main

import (
	"flag"
	"fmt"
	"os"

	"webracer"
	"webracer/internal/loader"
	"webracer/internal/report"
	"webracer/internal/sitegen"
)

func main() {
	sites := flag.Int("sites", 20, "number of synthetic sites")
	seed := flag.Int64("seed", 1, "corpus seed")
	filters := flag.Bool("filters", false, "apply the §5.3 filters")
	flag.Parse()

	cfg := webracer.DefaultConfig(*seed)
	cfg.Filters = *filters
	results, err := webracer.RunCorpusParallel(*sites, func(i int) *loader.Site {
		return sitegen.Generate(sitegen.SpecFor(*seed, i))
	}, cfg, webracer.ParallelConfig{})
	if err != nil {
		fmt.Fprintln(os.Stderr, "fortune100:", err)
		os.Exit(1)
	}

	counts := make([]report.Counts, len(results))
	fmt.Printf("%-28s %6s %6s %6s %6s %6s\n", "site", "HTML", "Func", "Var", "Disp", "errs")
	for i, res := range results {
		counts[i] = res.Counts
		c := res.Counts
		fmt.Printf("%-28s %6d %6d %6d %6d %6d\n", res.Site,
			c.Of(report.HTML), c.Of(report.Function), c.Of(report.Variable),
			c.Of(report.EventDispatch), len(res.Errors))
	}

	t1 := report.BuildTable1(counts)
	fmt.Printf("\n%-15s %8s %8s %6s\n", "aggregate", "mean", "median", "max")
	for _, name := range []string{"HTML", "Function", "Variable", "EventDispatch", "All"} {
		s := t1.Rows[name]
		fmt.Printf("%-15s %8.1f %8.1f %6d\n", name, s.Mean, s.Median, s.Max)
	}
}

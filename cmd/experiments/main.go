// Command experiments regenerates every table and figure of the paper's
// evaluation and prints them in order.
//
// Usage:
//
//	experiments [-only fig3|fig4|fig8|fig9|fig10|t1|t2|t3|t4|t5|t6|t7|t8|t9|t10] [-timings]
//
// -timings appends the corpus scan's aggregate per-stage pipeline timing
// and analysis-cache rows (default output is unchanged without it).
// -cache DIR runs the corpus scan through the persistent scan cache
// (-cache-mode off|ro|rw, default rw), so a repeated invocation rescans
// the unchanged corpus from cache; the rendered tables are identical
// either way.
// -validate adds the dynamic-validation breakdown (the "val" experiment,
// DESIGN.md §10): every golden-app warning replayed under injected
// disruptions and partitioned into confirmed / unconfirmed /
// not-validated, cross-referenced against the oracle's known false
// positives. Off by default so the standard output is unchanged;
// -only val runs just the breakdown.
// -families adds the per-family precision/recall breakdown of the corpus
// scan (the "fam" experiment): every warning attributed to the checker
// family that owns its cause and graded against the generator's ground
// truth. -only fam runs just the breakdown.
// -checkers runs the corpus scan with only the selected checker families
// (e.g. -checkers=5-8), the ablation companion to -families.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/core"
	"repro/internal/experiments"
)

func main() {
	only := flag.String("only", "", "run a single experiment (fig3, t6, …)")
	trials := flag.Int("trials", 200, "netsim trials per point (fig3)")
	timings := flag.Bool("timings", false, "print corpus-scan per-stage timing rows")
	cacheDir := flag.String("cache", "", "persistent scan-cache directory for the corpus scan (empty = no cache)")
	cacheMode := flag.String("cache-mode", "rw", "persistent-cache mode: off, ro, or rw")
	validate := flag.Bool("validate", false, "add the dynamic-validation breakdown of the golden-app warnings (the val experiment)")
	families := flag.Bool("families", false, "add the per-family precision/recall breakdown of the corpus scan (the fam experiment)")
	checkerSel := flag.String("checkers", "all", "checker families for the corpus scan: all, or numbers/ranges like 5-8 (ablation)")
	flag.Parse()
	mode, err := core.ParseCacheMode(*cacheMode)
	if err != nil {
		fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
		os.Exit(2)
	}
	cset, err := core.ParseCheckerSet(*checkerSel)
	if err != nil {
		fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
		os.Exit(2)
	}

	type exp struct {
		key    string
		needs  bool  // needs the corpus scan
		gate   *bool // nil = always; else runs only when *gate (or -only)
		render func(cs *experiments.CorpusScan) (string, error)
	}
	exps := []exp{
		{"fig3", false, nil, func(*experiments.CorpusScan) (string, error) {
			return experiments.Figure3(*trials, 1).Render(), nil
		}},
		{"t1", false, nil, func(*experiments.CorpusScan) (string, error) { return experiments.Table1().Render(), nil }},
		{"t2", false, nil, func(*experiments.CorpusScan) (string, error) { return experiments.Table2().Render(), nil }},
		{"fig4", false, nil, func(*experiments.CorpusScan) (string, error) { return experiments.Figure4().Render(), nil }},
		{"t3", false, nil, func(*experiments.CorpusScan) (string, error) { return experiments.Table3().Render(), nil }},
		{"t4", false, nil, func(*experiments.CorpusScan) (string, error) { return experiments.Table4().Render(), nil }},
		{"t5", false, nil, func(*experiments.CorpusScan) (string, error) { return experiments.Table5().Render(), nil }},
		{"t6", true, nil, func(cs *experiments.CorpusScan) (string, error) { return experiments.Table6(cs).Render(), nil }},
		{"t7", true, nil, func(cs *experiments.CorpusScan) (string, error) { return experiments.Table7(cs).Render(), nil }},
		{"t8", true, nil, func(cs *experiments.CorpusScan) (string, error) { return experiments.Table8(cs).Render(), nil }},
		{"fig8", true, nil, func(cs *experiments.CorpusScan) (string, error) { return experiments.Figure8(cs).Render(), nil }},
		{"fig9", true, nil, func(cs *experiments.CorpusScan) (string, error) { return experiments.Figure9(cs).Render(), nil }},
		{"t9", false, nil, func(*experiments.CorpusScan) (string, error) {
			r, err := experiments.Table9()
			if err != nil {
				return "", err
			}
			return r.Render(), nil
		}},
		{"t10", false, nil, func(*experiments.CorpusScan) (string, error) {
			r, err := experiments.Table10()
			if err != nil {
				return "", err
			}
			return r.Render(), nil
		}},
		{"fig10", false, nil, func(*experiments.CorpusScan) (string, error) {
			return experiments.Figure10(experiments.Seed).Render(), nil
		}},
		{"t9icc", false, nil, func(*experiments.CorpusScan) (string, error) {
			r, err := experiments.Table9WithICC()
			if err != nil {
				return "", err
			}
			return "[with inter-component analysis — §4.7 future work]\n" + r.Render(), nil
		}},
		{"lint", false, nil, func(*experiments.CorpusScan) (string, error) {
			r, err := experiments.LintComparison()
			if err != nil {
				return "", err
			}
			return r.Render(), nil
		}},
		{"dyn", false, nil, func(*experiments.CorpusScan) (string, error) {
			r, err := experiments.DynamicComparison(experiments.Seed)
			if err != nil {
				return "", err
			}
			return r.Render(), nil
		}},
		{"t11", false, nil, func(*experiments.CorpusScan) (string, error) {
			return experiments.Table11(experiments.Seed).Render(), nil
		}},
		{"val", false, validate, func(*experiments.CorpusScan) (string, error) {
			r, err := experiments.ValidationBreakdown()
			if err != nil {
				return "", err
			}
			return r.Render(), nil
		}},
		{"fam", true, families, func(cs *experiments.CorpusScan) (string, error) {
			return experiments.FamilyBreakdown(cs).Render(), nil
		}},
	}

	var cs *experiments.CorpusScan
	needScan := *timings
	for _, e := range exps {
		if e.needs && (*only == e.key || (*only == "" && (e.gate == nil || *e.gate))) {
			needScan = true
		}
	}
	if needScan {
		fmt.Fprintf(os.Stderr, "experiments: scanning the %d-app corpus (seed %d)...\n",
			285, experiments.Seed)
		var err error
		if *cacheDir != "" || cset != 0 {
			// The memoized DefaultScan runs every checker uncached; any
			// non-default option set goes through an explicit corpus scan.
			cs, err = experiments.ScanCorpusWith(experiments.Seed, core.Options{
				CacheDir: *cacheDir, CacheMode: mode, Checkers: cset,
			})
		} else {
			cs, err = experiments.DefaultScan()
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			os.Exit(1)
		}
		// Degraded app scans never abort the corpus; they are recorded
		// per app and flagged here so the tables are read with care.
		if n := cs.IncompleteApps(); n > 0 {
			fmt.Fprintf(os.Stderr, "experiments: warning: %d of %d app scans degraded:\n", n, len(cs.Apps))
			for _, line := range cs.FailedAppNames() {
				fmt.Fprintf(os.Stderr, "experiments:   %s\n", line)
			}
		}
	}
	ran := 0
	for _, e := range exps {
		if *only != "" && *only != e.key {
			continue
		}
		// Gated experiments stay out of the default run so the standard
		// output is unchanged; their flag (-validate, -families) or naming
		// them directly via -only opts in.
		if e.gate != nil && !*e.gate && *only != e.key {
			continue
		}
		out, err := e.render(cs)
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %s: %v\n", e.key, err)
			os.Exit(1)
		}
		fmt.Println(out)
		ran++
	}
	if ran == 0 && *only != "" {
		fmt.Fprintf(os.Stderr, "experiments: unknown experiment %q\n", *only)
		os.Exit(2)
	}
	if *timings {
		fmt.Println(cs.TimingRows())
	}
}

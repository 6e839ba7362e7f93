// Command nchecker scans Android app binaries (the repository's APK
// container format) for network programming defects and prints warning
// reports in the paper's Figure 7 layout, or as JSON.
//
// Usage:
//
//	nchecker [flags] app.apk [more.apk ...]
//	nchecker serve [flags]
//	nchecker coord [flags]
//
// Scan flags:
//
//	-json      emit reports as a JSON array instead of text
//	-stats     print per-app request statistics after the reports
//	-summary   print only the per-cause summary per app
//	-icc       enable the inter-component analysis
//	-guard     require connectivity checks to govern a branch
//	-intra     disable the interprocedural summary engine and
//	           path-feasibility pruning (ablation baseline)
//	-checkers  checker families to run (default all): comma-separated
//	           family numbers and ranges, e.g. -checkers=5-8; disabled
//	           families emit no reports, enabled ones are unchanged
//	-workers   apps scanned at once (0 = NumCPU); each scan runs on
//	           one goroutine
//	-timeout   per-file scan deadline (e.g. 30s; 0 = none)
//	-timings   print per-stage pipeline timings and cache statistics
//	-cache     persistent scan-cache directory; unchanged files rescan
//	           from cache, a changed file misses and is rescanned cold
//	-cache-mode off|ro|rw (default rw): how -cache is used; ro probes
//	           and restores without writing
//	-validate  replay each warning's witness entry point under injected
//	           network disruptions and stamp a confirmed / unconfirmed /
//	           not-validated verdict on every report (DESIGN.md §10)
//
// The serve subcommand runs the long-running scan service
// (internal/server): POST /scan an app container, GET /scan/{id} for the
// report, plus /metrics (Prometheus text), /healthz, and /debug/pprof/.
// See `nchecker serve -h` and DESIGN.md §8.
//
// The coord subcommand runs the fleet coordinator: the same scan API,
// dispatched across worker processes started with `nchecker serve
// -coord http://coordinator`, with content-hash sharding, work stealing,
// hedged retries, cache replication, and aggregated /metrics. See
// `nchecker coord -h` and DESIGN.md §12.
//
// In -json mode stdout carries only the JSON documents: the per-file
// banner, degraded-scan notices, -stats, and -timings all go to stderr.
//
// Exit codes: 0 when every file scanned clean, 1 when at least one
// warning was found, 2 on a usage error or when any file failed to read
// or parse, or any scan was degraded (a pipeline stage panicked or the
// -timeout deadline expired). A degraded scan still prints the surviving
// stages' reports — partial results are real findings — but the exit
// code reports the failure: an error always wins over warnings,
// regardless of the order the files were named in.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"

	"repro/internal/core"
	"repro/internal/report"
)

const (
	exitClean    = 0
	exitWarnings = 1
	exitError    = 2
)

func main() {
	args := os.Args[1:]
	if len(args) > 0 && args[0] == "serve" {
		os.Exit(runServe(args[1:], os.Stderr))
	}
	if len(args) > 0 && args[0] == "coord" {
		os.Exit(runCoord(args[1:], os.Stderr))
	}
	os.Exit(runScan(args, os.Stdout, os.Stderr))
}

// scanConfig carries the parsed scan-mode flags.
type scanConfig struct {
	jsonOut bool
	stats   bool
	summary bool
	timings bool
	opts    core.Options
}

// outcome buffers one file's output so concurrent batch scans print in
// argument order.
type outcome struct {
	out      strings.Builder // buffered stdout for this file
	errs     strings.Builder // buffered stderr for this file
	warnings bool
	failed   bool
}

// runScan is the scan-mode entry point, factored from main so the exit
// fold and output routing are testable.
func runScan(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("nchecker", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg scanConfig
	fs.BoolVar(&cfg.jsonOut, "json", false, "emit reports as JSON")
	fs.BoolVar(&cfg.stats, "stats", false, "print per-app request statistics")
	fs.BoolVar(&cfg.summary, "summary", false, "print only per-cause summaries")
	fs.BoolVar(&cfg.opts.EnableICC, "icc", false, "enable the inter-component analysis (removes launcher/broadcast FPs)")
	fs.BoolVar(&cfg.opts.GuardSensitiveConnCheck, "guard", false, "require connectivity checks to govern a branch (removes unused-check FNs)")
	fs.BoolVar(&cfg.opts.Intraprocedural, "intra", false, "intraprocedural ablation: no taint summaries, no path-feasibility pruning")
	fs.IntVar(&cfg.opts.Workers, "workers", 0, "apps scanned at once (0 = NumCPU)")
	fs.DurationVar(&cfg.opts.Timeout, "timeout", 0, "per-file scan deadline (0 = none); an expired deadline yields a degraded scan and exit code 2")
	fs.BoolVar(&cfg.timings, "timings", false, "print per-stage pipeline timings and cache statistics")
	fs.BoolVar(&cfg.opts.Validate, "validate", false, "dynamically validate warnings by replaying witness entries under injected disruptions")
	fs.StringVar(&cfg.opts.CacheDir, "cache", "", "persistent scan-cache directory (empty = no cache)")
	cacheMode := fs.String("cache-mode", "rw", "persistent-cache mode: off, ro, or rw")
	checkerSel := fs.String("checkers", "all", "checker families to run: all, or numbers/ranges like 1,3,5-8")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: nchecker [flags] app.apk [more.apk ...]\n       nchecker serve [flags]\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return exitError
	}
	if fs.NArg() == 0 {
		fs.Usage()
		return exitError
	}
	mode, err := core.ParseCacheMode(*cacheMode)
	if err != nil {
		fmt.Fprintf(stderr, "nchecker: %v\n", err)
		return exitError
	}
	cfg.opts.CacheMode = mode
	cset, err := core.ParseCheckerSet(*checkerSel)
	if err != nil {
		fmt.Fprintf(stderr, "nchecker: %v\n", err)
		return exitError
	}
	cfg.opts.Checkers = cset
	paths := fs.Args()

	// Files fan out across the pool, each scan on its own goroutine.
	filePool := poolSize(cfg.opts.Workers)
	if filePool > len(paths) {
		filePool = len(paths)
	}
	nc := core.NewWithOptions(cfg.opts)

	// Scan files concurrently (the Checker is goroutine-safe); output is
	// buffered per file and printed in argument order.
	outcomes := make([]outcome, len(paths))
	if filePool > 1 {
		var wg sync.WaitGroup
		sem := make(chan struct{}, filePool)
		for i := range paths {
			sem <- struct{}{}
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				defer func() { <-sem }()
				scanOne(nc, paths[i], cfg, &outcomes[i])
			}(i)
		}
		wg.Wait()
	} else {
		for i := range paths {
			scanOne(nc, paths[i], cfg, &outcomes[i])
		}
	}
	return foldOutcomes(outcomes, stdout, stderr)
}

// scanOne scans a single file into its outcome slot.
func scanOne(nc *core.Checker, path string, cfg scanConfig, o *outcome) {
	res, err := nc.ScanFile(path)
	if err != nil {
		fmt.Fprintf(&o.errs, "nchecker: %v\n", err)
		o.failed = true
		return
	}
	if res.Incomplete {
		// Partial results follow below; the notice (exactly one per file,
		// always on stderr) and the exit code record that the scan is
		// missing stages.
		fmt.Fprintf(&o.errs, "nchecker: %s: degraded scan (partial results): %v\n", path, res.Err())
		o.failed = true
	}
	// In JSON mode stdout must carry only the JSON documents: the banner,
	// -stats, and -timings are diagnostics and belong on stderr there.
	diag := &o.out
	if cfg.jsonOut {
		diag = &o.errs
	}
	fmt.Fprintf(diag, "== %s: %d requests, %d warnings ==\n", path, res.Stats.Requests, len(res.Reports))
	switch {
	case cfg.jsonOut:
		if err := printJSON(&o.out, res.Reports); err != nil {
			fmt.Fprintf(&o.errs, "nchecker: %v\n", err)
			o.failed = true
		}
	case cfg.summary:
		printSummary(&o.out, res.Reports)
	default:
		o.out.WriteString(report.RenderAll(res.Reports))
	}
	if cfg.stats {
		fmt.Fprintf(diag, "stats: %+v\n", res.Stats)
	}
	if cfg.timings {
		diag.WriteString(res.Diagnostics.Render())
	}
	if len(res.Reports) > 0 {
		o.warnings = true
	}
}

// foldOutcomes flushes the buffered per-file output in argument order and
// folds the per-file outcomes into the process exit code. The fold is a
// maximum over per-file codes — error(2) > warnings(1) > clean(0) — so the
// result is independent of the order the files were named in.
func foldOutcomes(outcomes []outcome, stdout, stderr io.Writer) int {
	exit := exitClean
	for i := range outcomes {
		io.WriteString(stdout, outcomes[i].out.String())
		io.WriteString(stderr, outcomes[i].errs.String())
		code := exitClean
		switch {
		case outcomes[i].failed:
			code = exitError
		case outcomes[i].warnings:
			code = exitWarnings
		}
		if code > exit {
			exit = code
		}
	}
	return exit
}

// poolSize resolves the -workers value: 0 means one app per CPU.
func poolSize(n int) int {
	if n > 0 {
		return n
	}
	return runtime.NumCPU()
}

// printJSON buffers the whole encoded document and commits it to w only
// on success, so a mid-encode failure emits the error alone instead of a
// corrupt partial JSON document followed by the error.
func printJSON(w *strings.Builder, reports []report.Report) error {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(reports); err != nil {
		return err
	}
	w.Write(buf.Bytes())
	return nil
}

func printSummary(w *strings.Builder, reports []report.Report) {
	s := report.Summarize(reports)
	causes := make([]string, 0, len(s.ByCause))
	for c := range s.ByCause {
		causes = append(causes, string(c))
	}
	sort.Strings(causes)
	for _, c := range causes {
		fmt.Fprintf(w, "  %-28s %d\n", c, s.ByCause[report.Cause(c)])
	}
}

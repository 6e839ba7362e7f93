// Package experiments regenerates every table and figure of the paper's
// evaluation from this repository's own substrates: the §2 study dataset,
// the library annotation registry, the network simulator, the synthetic
// 285-app corpus, the 16 golden apps, the automated fixer, and the
// user-study model. Each experiment returns a structured result with a
// Render method producing the rows/series the paper reports;
// cmd/experiments prints them all and bench_test.go times them.
package experiments

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"

	"repro/internal/apimodel"
	"repro/internal/checkers"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/report"
)

// Seed is the canonical evaluation seed.
const Seed = 2016

// AppResult is one scanned corpus app. Incomplete marks a degraded scan
// (a stage panicked or the per-scan deadline expired); its partial stats
// and reports are kept and Err summarizes what failed, so one pathological
// app never aborts a corpus run.
type AppResult struct {
	Name       string
	Golden     bool
	Spec       corpus.AppSpec
	Stats      checkers.Stats
	Reports    []report.Report
	Incomplete bool
	Err        string
	Diag       checkers.Diagnostics
}

// CorpusScan holds the full corpus scan, the input to Tables 6–8 and
// Figures 8–9.
type CorpusScan struct {
	Seed int64
	Apps []AppResult
}

// ScanCorpus generates the corpus for the seed and scans every app with
// default options.
func ScanCorpus(seed int64) (*CorpusScan, error) {
	return ScanCorpusWith(seed, core.Options{})
}

// ScanCorpusWith generates the corpus for the seed and scans every app
// with the given analysis options.
func ScanCorpusWith(seed int64, opts core.Options) (*CorpusScan, error) {
	apps, err := corpus.GenerateCorpus(seed)
	if err != nil {
		return nil, err
	}
	cs := ScanApps(apps, opts)
	cs.Seed = seed
	return cs, nil
}

// ScanApps scans the given corpus apps. Opts.Workers (0 = GOMAXPROCS)
// bounds the app-level pool: whole apps are scanned concurrently, each
// scan on one goroutine. Results keep the corpus order, so output is
// deterministic regardless of scheduling.
func ScanApps(apps []*corpus.CorpusApp, opts core.Options) *CorpusScan {
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(apps) {
		workers = len(apps)
	}
	nc := core.NewWithOptions(opts)
	out := &CorpusScan{Apps: make([]AppResult, len(apps))}
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				a := apps[i]
				res := nc.ScanApp(a.App)
				r := AppResult{
					Name: a.Name, Golden: a.Golden, Spec: a.Spec,
					Stats: res.Stats, Reports: res.Reports, Diag: res.Diagnostics,
				}
				// A degraded scan (stage panic, expired deadline) is
				// recorded per app — the corpus run keeps going.
				if err := res.Err(); err != nil {
					r.Incomplete = true
					r.Err = err.Error()
				}
				out.Apps[i] = r
			}
		}()
	}
	for i := range apps {
		next <- i
	}
	close(next)
	wg.Wait()
	return out
}

var (
	scanOnce   sync.Once
	scanCached *CorpusScan
	scanErr    error
)

// DefaultScan returns the canonical-seed corpus scan, computed once per
// process.
func DefaultScan() (*CorpusScan, error) {
	scanOnce.Do(func() {
		scanCached, scanErr = ScanCorpus(Seed)
	})
	return scanCached, scanErr
}

// TotalWarnings sums warnings across the corpus.
func (cs *CorpusScan) TotalWarnings() int {
	n := 0
	for i := range cs.Apps {
		n += len(cs.Apps[i].Reports)
	}
	return n
}

// IncompleteApps counts apps whose scan was degraded (partial results).
func (cs *CorpusScan) IncompleteApps() int {
	n := 0
	for i := range cs.Apps {
		if cs.Apps[i].Incomplete {
			n++
		}
	}
	return n
}

// FailedAppNames lists the degraded apps with their failure summaries, in
// corpus order.
func (cs *CorpusScan) FailedAppNames() []string {
	var out []string
	for i := range cs.Apps {
		if cs.Apps[i].Incomplete {
			out = append(out, fmt.Sprintf("%s: %s", cs.Apps[i].Name, cs.Apps[i].Err))
		}
	}
	return out
}

// BuggyApps counts apps with at least one warning.
func (cs *CorpusScan) BuggyApps() int {
	n := 0
	for i := range cs.Apps {
		if len(cs.Apps[i].Reports) > 0 {
			n++
		}
	}
	return n
}

// Diagnostics aggregates every app's scan diagnostics (stage-wise sums of
// wall time, work volumes, and cache counters).
func (cs *CorpusScan) Diagnostics() checkers.Diagnostics {
	var agg checkers.Diagnostics
	for i := range cs.Apps {
		agg.Merge(cs.Apps[i].Diag)
	}
	return agg
}

// TimingRows renders the corpus scan's aggregate per-stage timing table —
// the observability companion to Tables 6–8.
func (cs *CorpusScan) TimingRows() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Corpus-scan timing (%d apps, seed %d):\n", len(cs.Apps), cs.Seed)
	if n := cs.IncompleteApps(); n > 0 {
		fmt.Fprintf(&b, "  DEGRADED: %d of %d app scans incomplete\n", n, len(cs.Apps))
		for _, line := range cs.FailedAppNames() {
			fmt.Fprintf(&b, "    %s\n", line)
		}
	}
	b.WriteString(cs.Diagnostics().Render())
	return b.String()
}

// usesRetryLib reports whether the app references a retry-capable library.
func usesRetryLib(reg *apimodel.Registry, st checkers.Stats) bool {
	for _, k := range st.LibsUsed {
		if l := reg.Library(k); l != nil && l.HasRetryAPIs {
			return true
		}
	}
	return false
}

// usesRespLib reports whether the app references a response-check library.
func usesRespLib(reg *apimodel.Registry, st checkers.Stats) bool {
	for _, k := range st.LibsUsed {
		if l := reg.Library(k); l != nil && l.HasRespCheckAPIs() {
			return true
		}
	}
	return false
}

// pct formats n/d as a percentage.
func pct(n, d int) string {
	if d == 0 {
		return "  –"
	}
	return fmt.Sprintf("%3.0f%%", 100*float64(n)/float64(d))
}

// table renders rows with aligned columns.
func table(header []string, rows [][]string) string {
	widths := make([]int, len(header))
	for i, h := range header {
		widths[i] = len(h)
	}
	for _, r := range rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(c)
			b.WriteString(strings.Repeat(" ", widths[i]-len(c)))
		}
		b.WriteByte('\n')
	}
	writeRow(header)
	sep := make([]string, len(header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, r := range rows {
		writeRow(r)
	}
	return b.String()
}

// cdf returns (x, y) points of the empirical CDF of values in (0,1].
func cdf(values []float64) (xs, ys []float64) {
	sorted := append([]float64(nil), values...)
	sort.Float64s(sorted)
	n := len(sorted)
	for i, v := range sorted {
		xs = append(xs, v)
		ys = append(ys, float64(i+1)/float64(n))
	}
	return xs, ys
}

// cdfAt evaluates the empirical CDF at x.
func cdfAt(values []float64, x float64) float64 {
	if len(values) == 0 {
		return 0
	}
	n := 0
	for _, v := range values {
		if v <= x {
			n++
		}
	}
	return float64(n) / float64(len(values))
}

// Benchmarks regenerating every table and figure of the paper's
// evaluation (one benchmark per table/figure), the DESIGN.md ablations,
// and the core pipeline's micro-costs. Run with:
//
//	go test -bench=. -benchmem
package repro_test

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"

	"repro/internal/android"
	"repro/internal/apimodel"
	"repro/internal/apk"
	"repro/internal/baselayer"
	"repro/internal/callgraph"
	"repro/internal/cfg"
	"repro/internal/checkers"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/dataflow"
	"repro/internal/dex"
	"repro/internal/experiments"
	"repro/internal/fixer"
	"repro/internal/hierarchy"
	"repro/internal/interp"
	"repro/internal/jimple"
	"repro/internal/lint"
	"repro/internal/netsim"
	"repro/internal/report"
	"repro/internal/userstudy"
)

// --- one benchmark per table/figure -----------------------------------------

func BenchmarkFigure3_DownloadSuccess(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Figure3(50, 1)
		if len(r.Series) != 2 {
			b.Fatal("bad series")
		}
	}
}

func BenchmarkTable1_StudyApps(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if len(experiments.Table1().Apps) != 21 {
			b.Fatal("bad table")
		}
	}
}

func BenchmarkTable2_Representatives(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if len(experiments.Table2().Rows) != 6 {
			b.Fatal("bad table")
		}
	}
}

func BenchmarkFigure4_ImpactDistribution(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if experiments.Figure4().Total != 90 {
			b.Fatal("bad figure")
		}
	}
}

func BenchmarkTable3_RootCauses(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if experiments.Table3().Total != 90 {
			b.Fatal("bad table")
		}
	}
}

func BenchmarkTable4_LibraryMatrix(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if len(experiments.Table4().Libraries) != 6 {
			b.Fatal("bad matrix")
		}
	}
}

func BenchmarkTable5_MisusePatterns(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if len(experiments.Table5().Rows) == 0 {
			b.Fatal("bad table")
		}
	}
}

// corpusScan caches the expensive full-corpus scan across benchmarks.
func corpusScan(b *testing.B) *experiments.CorpusScan {
	b.Helper()
	cs, err := experiments.DefaultScan()
	if err != nil {
		b.Fatal(err)
	}
	return cs
}

func BenchmarkTable6_CorpusScan(b *testing.B) {
	// The headline experiment: generate and scan all 285 apps.
	for i := 0; i < b.N; i++ {
		cs, err := experiments.ScanCorpus(experiments.Seed)
		if err != nil {
			b.Fatal(err)
		}
		r := experiments.Table6(cs)
		if r.TotalApps != 285 {
			b.Fatal("bad corpus")
		}
	}
}

func BenchmarkTable7_LibraryUsage(b *testing.B) {
	cs := corpusScan(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if experiments.Table7(cs).Native != 270 {
			b.Fatal("bad table")
		}
	}
}

func BenchmarkTable8_RetryBehaviours(b *testing.B) {
	cs := corpusScan(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if experiments.Table8(cs).EvalApps != 91 {
			b.Fatal("bad table")
		}
	}
}

func BenchmarkFigure8_ConfigCDF(b *testing.B) {
	cs := corpusScan(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := experiments.Figure8(cs)
		if len(r.ConnCheck.Ratios) == 0 {
			b.Fatal("bad figure")
		}
	}
}

func BenchmarkFigure9_NotificationCDF(b *testing.B) {
	cs := corpusScan(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := experiments.Figure9(cs)
		if len(r.Notif.Ratios) == 0 {
			b.Fatal("bad figure")
		}
	}
}

func BenchmarkTable9_GoldenAccuracy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Table9()
		if err != nil || r.Correct != 130 {
			b.Fatalf("bad accuracy table: %v", err)
		}
	}
}

func BenchmarkTable10_AutoFix(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Table10()
		if err != nil || len(r.Rows) != 7 {
			b.Fatalf("bad table: %v", err)
		}
	}
}

func BenchmarkFigure10_UserStudy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Figure10(experiments.Seed)
		if len(r.Rows) != 6 {
			b.Fatal("bad figure")
		}
	}
}

// --- ablations (DESIGN.md §5) ------------------------------------------------

func goldenApps(b *testing.B) []*apk.App {
	b.Helper()
	apps, err := corpus.BuildGoldens()
	if err != nil {
		b.Fatal(err)
	}
	return apps
}

func scanAllWith(b *testing.B, apps []*apk.App, opts core.Options) int {
	nc := core.NewWithOptions(opts)
	warnings := 0
	for _, app := range apps {
		warnings += len(nc.ScanApp(app).Reports)
	}
	return warnings
}

func BenchmarkAblation_CHADispatch(b *testing.B) {
	apps := goldenApps(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scanAllWith(b, apps, core.Options{})
	}
}

func BenchmarkAblation_DeclaredDispatchOnly(b *testing.B) {
	apps := goldenApps(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scanAllWith(b, apps, core.Options{DeclaredDispatchOnly: true})
	}
}

func BenchmarkAblation_TaintConfigDiscovery(b *testing.B) {
	apps := goldenApps(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scanAllWith(b, apps, core.Options{})
	}
}

func BenchmarkAblation_WholeMethodConfigScan(b *testing.B) {
	apps := goldenApps(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scanAllWith(b, apps, core.Options{DisableTaintConfigDiscovery: true})
	}
}

func BenchmarkAblation_RetrySlicing(b *testing.B) {
	app := corpus.MustBuild(corpus.AppSpec{Package: "ab.loop", Sites: []corpus.SiteSpec{
		{Lib: apimodel.LibBasic, Ctx: corpus.CtxActivity, RetryLoop: true, Notify: true,
			ConnCheck: true, SetTimeout: true, SetRetry: true, RetryCount: 1},
	}})
	nc := core.New()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if nc.ScanApp(app).Stats.RetryLoops != 1 {
			b.Fatal("loop not found")
		}
	}
}

func BenchmarkAblation_NoRetrySlicing(b *testing.B) {
	app := corpus.MustBuild(corpus.AppSpec{Package: "ab.loop2", Sites: []corpus.SiteSpec{
		{Lib: apimodel.LibBasic, Ctx: corpus.CtxActivity, RetryLoop: true, Notify: true,
			ConnCheck: true, SetTimeout: true, SetRetry: true, RetryCount: 1},
	}})
	nc := core.NewWithOptions(core.Options{DisableRetrySlicing: true})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nc.ScanApp(app)
	}
}

// --- batch concurrency --------------------------------------------------------

// benchCorpus caches the generated corpus so the ScanApp benchmarks time
// only the scanning, not corpus generation.
func benchCorpus(b *testing.B) []*corpus.CorpusApp {
	b.Helper()
	apps, err := corpus.GenerateCorpus(experiments.Seed)
	if err != nil {
		b.Fatal(err)
	}
	return apps
}

// BenchmarkScanApp is the sequential baseline for the acceptance
// criterion: the Table 6 corpus scanned with a single worker.
func BenchmarkScanApp(b *testing.B) {
	apps := benchCorpus(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cs := experiments.ScanApps(apps, core.Options{Workers: 1})
		if cs.TotalWarnings() == 0 {
			b.Fatal("no warnings")
		}
	}
}

// BenchmarkScanAppParallel is the same corpus scan with one app per CPU
// scanned at once; compare ns/op against BenchmarkScanApp.
func BenchmarkScanAppParallel(b *testing.B) {
	apps := benchCorpus(b)
	workers := runtime.NumCPU()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cs := experiments.ScanApps(apps, core.Options{Workers: workers})
		if cs.TotalWarnings() == 0 {
			b.Fatal("no warnings")
		}
	}
}

// BenchmarkScanAppIntra is BenchmarkScanApp under the interprocedural
// ablation: no taint summaries, no feasibility pruning. The delta against
// BenchmarkScanApp is the whole-pipeline cost of the summary engine.
func BenchmarkScanAppIntra(b *testing.B) {
	apps := benchCorpus(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cs := experiments.ScanApps(apps, core.Options{Workers: 1, Intraprocedural: true})
		if cs.TotalWarnings() == 0 {
			b.Fatal("no warnings")
		}
	}
}

// summaryBenchInput assembles the call graph and app methods of the
// micro-benchmark app for the engine-only benchmarks.
func summaryBenchInput(b *testing.B) (*callgraph.Graph, []*jimple.Method) {
	b.Helper()
	app := benchApp(b)
	h := hierarchy.New(app.Program)
	cg := callgraph.Build(h, app.Manifest)
	var methods []*jimple.Method
	for _, c := range app.Program.Classes() {
		for _, m := range c.Methods {
			if m.HasBody() {
				methods = append(methods, m)
			}
		}
	}
	return cg, methods
}

// BenchmarkSummariesCold times the summary engine with nothing cached:
// every iteration rebuilds CFGs, reaching definitions, and constant
// propagation before the bottom-up fixpoint.
func BenchmarkSummariesCold(b *testing.B) {
	cg, methods := summaryBenchInput(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		set, err := dataflow.ComputeSummaries(cg, methods, dataflow.SummaryConfig{})
		if err != nil || set.Stats().Methods == 0 {
			b.Fatal("no summaries")
		}
	}
}

// BenchmarkSummariesWarm times the summary fixpoint alone: the per-method
// CFG/reach-defs/const-prop artifacts come from a pre-warmed cache, the
// way AnalysisContext serves them on the second and later consults.
func BenchmarkSummariesWarm(b *testing.B) {
	cg, methods := summaryBenchInput(b)
	cfgs := make(map[*jimple.Method]*cfg.Graph, len(methods))
	rds := make(map[*jimple.Method]*dataflow.ReachDefs, len(methods))
	cps := make(map[*jimple.Method]*dataflow.ConstProp, len(methods))
	for _, m := range methods {
		g := cfg.New(nil, m)
		cfgs[m] = g
		rds[m] = dataflow.NewReachDefs(nil, g)
		cps[m] = dataflow.NewConstProp(rds[m])
	}
	conf := dataflow.SummaryConfig{
		CFG:       func(m *jimple.Method) *cfg.Graph { return cfgs[m] },
		ReachDefs: func(m *jimple.Method) *dataflow.ReachDefs { return rds[m] },
		ConstProp: func(m *jimple.Method) *dataflow.ConstProp { return cps[m] },
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		set, err := dataflow.ComputeSummaries(cg, methods, conf)
		if err != nil || set.Stats().Methods == 0 {
			b.Fatal("no summaries")
		}
	}
}

// --- persistent scan cache (DESIGN.md §7) -------------------------------------

// cacheBench collects the cold/warm full-corpus timings; whichever
// benchmark finishes second writes BENCH_cache.json, so one
//
//	go test -bench='ScanCorpusCold|ScanCorpusWarm' .
//
// run commits both numbers and the speedup.
var cacheBench struct {
	sync.Mutex
	coldNs, warmNs int64
}

func recordCacheBench(b *testing.B, cold bool, nsPerOp int64) {
	b.Helper()
	cacheBench.Lock()
	defer cacheBench.Unlock()
	if cold {
		cacheBench.coldNs = nsPerOp
	} else {
		cacheBench.warmNs = nsPerOp
	}
	if cacheBench.coldNs == 0 || cacheBench.warmNs == 0 {
		return
	}
	out := struct {
		Benchmark   string  `json:"benchmark"`
		Apps        int     `json:"apps"`
		ColdNsPerOp int64   `json:"cold_ns_per_op"`
		WarmNsPerOp int64   `json:"warm_ns_per_op"`
		Speedup     float64 `json:"speedup"`
		GoVersion   string  `json:"go_version"`
		GOOS        string  `json:"goos"`
		GOARCH      string  `json:"goarch"`
		CPUs        int     `json:"cpus"`
	}{
		Benchmark:   "BenchmarkScanCorpusCold/BenchmarkScanCorpusWarm",
		Apps:        corpus.CorpusSize,
		ColdNsPerOp: cacheBench.coldNs,
		WarmNsPerOp: cacheBench.warmNs,
		Speedup:     float64(cacheBench.coldNs) / float64(cacheBench.warmNs),
		GoVersion:   runtime.Version(),
		GOOS:        runtime.GOOS,
		GOARCH:      runtime.GOARCH,
		CPUs:        runtime.NumCPU(),
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		b.Fatal(err)
	}
	if err := os.WriteFile("BENCH_cache.json", append(data, '\n'), 0o644); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkScanCorpusCold scans the pre-generated 285-app corpus into a
// fresh cache directory every iteration: the cost of a first-ever run
// with -cache on (all misses, plus entry encoding and commits). Each
// iteration needs its own directory because cachestore.Shared memoizes
// stores per path — reusing one would silently measure the warm path.
// Under -short only the first coldSmokeApps apps are scanned (the
// check.sh smoke gate's corpus); full runs also feed BENCH_cache.json.
func BenchmarkScanCorpusCold(b *testing.B) {
	apps := benchCorpus(b)
	if testing.Short() {
		apps = apps[:coldSmokeApps]
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		dir := b.TempDir()
		b.StartTimer()
		cs := experiments.ScanApps(apps, core.Options{CacheDir: dir, CacheMode: core.CacheRW})
		if cs.TotalWarnings() == 0 {
			b.Fatal("no warnings")
		}
		if n := cs.IncompleteApps(); n > 0 {
			b.Fatalf("%d apps degraded", n)
		}
	}
	nsPerOp := b.Elapsed().Nanoseconds() / int64(b.N)
	runtime.ReadMemStats(&after)
	if !testing.Short() {
		recordCacheBench(b, true, nsPerOp)
	}
	recordColdBench(b, coldBenchEntry{
		Apps:        len(apps),
		NsPerOp:     nsPerOp,
		BytesPerOp:  int64(after.TotalAlloc-before.TotalAlloc) / int64(b.N),
		AllocsPerOp: int64(after.Mallocs-before.Mallocs) / int64(b.N),
	})
}

// --- cold-scan allocation trajectory (ROADMAP item 5) -------------------------

// coldSmokeApps is the corpus prefix the -short smoke run scans: enough
// apps to exercise every checker family, small enough for a CI gate.
const coldSmokeApps = 40

type coldBenchEntry struct {
	Label       string `json:"label"`
	Apps        int    `json:"apps"`
	NsPerOp     int64  `json:"ns_per_op"`
	BytesPerOp  int64  `json:"bytes_per_op"`
	AllocsPerOp int64  `json:"allocs_per_op"`
}

// coldBenchFile is BENCH_cold.json, the cold-scan perf trajectory.
// Trajectory holds one full-corpus entry per landed change (labeled via
// BENCH_COLD_LABEL; committed PR entries keep their labels and stay put,
// so the file reads as a history). Smoke holds the -short short-corpus
// numbers scripts/check.sh regenerates and gates on.
type coldBenchFile struct {
	Benchmark  string           `json:"benchmark"`
	GoVersion  string           `json:"go_version"`
	GOOS       string           `json:"goos"`
	GOARCH     string           `json:"goarch"`
	CPUs       int              `json:"cpus"`
	Trajectory []coldBenchEntry `json:"trajectory"`
	Smoke      *coldBenchEntry  `json:"smoke,omitempty"`
}

// recordColdBench folds one BenchmarkScanCorpusCold result into
// BENCH_cold.json. The allocation counts come from runtime.MemStats
// around the whole benchmark loop, so they include the (tiny) untimed
// per-iteration temp-dir setup — self-consistent between regeneration
// and the check.sh comparison, which is what the gate needs.
// BENCH_COLD_OUT redirects the write (check.sh points it at an artifacts
// dir so a smoke run never dirties the committed file).
func recordColdBench(b *testing.B, e coldBenchEntry) {
	b.Helper()
	var f coldBenchFile
	if data, err := os.ReadFile("BENCH_cold.json"); err == nil {
		if err := json.Unmarshal(data, &f); err != nil {
			b.Fatalf("BENCH_cold.json: %v", err)
		}
	}
	f.Benchmark = "BenchmarkScanCorpusCold"
	f.GoVersion = runtime.Version()
	f.GOOS = runtime.GOOS
	f.GOARCH = runtime.GOARCH
	f.CPUs = runtime.NumCPU()
	if testing.Short() {
		e.Label = "smoke"
		f.Smoke = &e
	} else {
		e.Label = os.Getenv("BENCH_COLD_LABEL")
		if e.Label == "" {
			e.Label = "working tree"
		}
		replaced := false
		for i := range f.Trajectory {
			if f.Trajectory[i].Label == e.Label {
				f.Trajectory[i] = e
				replaced = true
			}
		}
		if !replaced {
			f.Trajectory = append(f.Trajectory, e)
		}
	}
	out := os.Getenv("BENCH_COLD_OUT")
	if out == "" {
		out = "BENCH_cold.json"
	}
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		b.Fatal(err)
	}
	if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkScanCorpusWarm rescans the same corpus against a cache filled
// once before the timer: every app is answered by a result-entry hit.
// Compare ns/op against BenchmarkScanCorpusCold; BENCH_cache.json records
// the ratio.
func BenchmarkScanCorpusWarm(b *testing.B) {
	apps := benchCorpus(b)
	dir := b.TempDir()
	opts := core.Options{CacheDir: dir, CacheMode: core.CacheRW}
	fill := experiments.ScanApps(apps, opts)
	if n := fill.IncompleteApps(); n > 0 {
		b.Fatalf("cache fill degraded %d apps", n)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cs := experiments.ScanApps(apps, opts)
		if cs.TotalWarnings() == 0 {
			b.Fatal("no warnings")
		}
	}
	recordCacheBench(b, false, b.Elapsed().Nanoseconds()/int64(b.N))
}

// --- padded-scale scans (DESIGN.md §9) ---------------------------------------

// benchScanPadded times a cold ScanBytes of the micro-benchmark app padded
// with inert classes (corpus.AddPadding) to scale× its class count. The
// demand closure skips every padding class, so the cost should grow far
// slower than the class count:
//
//	go test -bench='^BenchmarkScanPadded' .
func benchScanPadded(b *testing.B, scale int) {
	app := benchApp(b)
	corpus.AddPadding(app, app.Program.NumClasses()*(scale-1))
	data, err := apk.Encode(app)
	if err != nil {
		b.Fatal(err)
	}
	nc := core.NewWithOptions(core.Options{Workers: 1})
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := nc.ScanBytes(data)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Reports) == 0 {
			b.Fatal("no warnings")
		}
	}
}

func BenchmarkScanPadded1x(b *testing.B)   { benchScanPadded(b, 1) }
func BenchmarkScanPadded10x(b *testing.B)  { benchScanPadded(b, 10) }
func BenchmarkScanPadded100x(b *testing.B) { benchScanPadded(b, 100) }

// largeAppsDraw returns the containers of perfbench's large-apps workload
// at seed 2016: 64 corpus apps drawn in seeded order, each padded with
// 200 + [0, 200) inert classes, the counts spread evenly over the draw.
func largeAppsDraw(b *testing.B) [][]byte {
	b.Helper()
	const seed, draw, padMin, padSpan = 2016, 64, 200, 200
	apps, err := corpus.GenerateCorpus(seed)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	drawn := rng.Perm(len(apps))[:draw]
	order := rng.Perm(draw)
	out := make([][]byte, draw)
	for j, i := range drawn {
		corpus.AddPadding(apps[i].App, padMin+order[j]*padSpan/draw)
		if out[j], err = apk.Encode(apps[i].App); err != nil {
			b.Fatal(err)
		}
	}
	return out
}

// BenchmarkOpenPadded times the lazy open every container scan starts
// with (apk.DecodeLazy: container framing, class headers, member and
// body skim, and caller index) over the large-apps draw; one op is one
// app:
//
//	go test -run='^$' -bench='^BenchmarkOpenPadded$' -benchmem .
func BenchmarkOpenPadded(b *testing.B) {
	data := largeAppsDraw(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := apk.DecodeLazy(data[i%len(data)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScanBytesPadded is the whole single-worker scan of the same
// draw, open included, so the open's share of a large-app scan can be
// read off beside BenchmarkOpenPadded.
func BenchmarkScanBytesPadded(b *testing.B) {
	data := largeAppsDraw(b)
	nc := core.NewWithOptions(core.Options{Workers: 1})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := nc.ScanBytes(data[i%len(data)]); err != nil {
			b.Fatal(err)
		}
	}
}

// corpusContainers returns the encoded containers of the 285-app corpus.
func corpusContainers(b *testing.B) [][]byte {
	b.Helper()
	apps := benchCorpus(b)
	out := make([][]byte, len(apps))
	for i, ca := range apps {
		var err error
		if out[i], err = apk.Encode(ca.App); err != nil {
			b.Fatal(err)
		}
	}
	return out
}

// BenchmarkScanBytesCorpus is the corpus twin of BenchmarkScanBytesPadded:
// the whole single-worker byte scan of each corpus container, open
// included; one op is one app:
//
//	go test -run='^$' -bench='^BenchmarkScanBytesCorpus$' -benchmem .
func BenchmarkScanBytesCorpus(b *testing.B) {
	data := corpusContainers(b)
	nc := core.NewWithOptions(core.Options{Workers: 1})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := nc.ScanBytes(data[i%len(data)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScanFileRenderCorpus is perfbench's corpus operation in tree:
// a single-worker ScanFileContext of each corpus container, read from a
// file, and the report text rendered as the CLI prints it
// (report.RenderAll); one op is one app:
//
//	go test -run='^$' -bench='^BenchmarkScanFileRenderCorpus$' -benchmem -cpu 1 .
func BenchmarkScanFileRenderCorpus(b *testing.B) {
	data := corpusContainers(b)
	dir := b.TempDir()
	paths := make([]string, len(data))
	for i, d := range data {
		paths[i] = filepath.Join(dir, fmt.Sprintf("app%03d.apk", i))
		if err := os.WriteFile(paths[i], d, 0o644); err != nil {
			b.Fatal(err)
		}
	}
	nc := core.NewWithOptions(core.Options{Workers: 1})
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := nc.ScanFileContext(ctx, paths[i%len(paths)])
		if err != nil {
			b.Fatal(err)
		}
		_ = report.RenderAll(res.Reports)
	}
}

// BenchmarkMethodKernelsCorpus times the per-method layer under the
// checkers over each corpus container: the lazy open, materializing every
// body, and the kernel family over every bodied method (CFG, local index,
// dominators, natural loops, reaching definitions, constant propagation
// and the feasibility-pruned graph); one op is one app:
//
//	go test -run='^$' -bench='^BenchmarkMethodKernelsCorpus$' -benchmem .
func BenchmarkMethodKernelsCorpus(b *testing.B) {
	data := corpusContainers(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		app, err := apk.DecodeLazy(data[i%len(data)])
		if err != nil {
			b.Fatal(err)
		}
		if err := app.Lazy.MaterializeAll(); err != nil {
			b.Fatal(err)
		}
		nodes := 0
		for _, c := range app.Program.Classes() {
			for _, m := range c.Methods {
				if !m.HasBody() {
					continue
				}
				g := cfg.New(nil, m)
				g.Locals()
				g.NaturalLoopsWith(g.Dominators())
				cp := dataflow.NewConstProp(dataflow.NewReachDefs(nil, g))
				nodes += g.WithoutEdges(dataflow.InfeasibleEdges(g, cp)).NumNodes()
			}
		}
		if nodes == 0 {
			b.Fatal("no bodied method")
		}
	}
}

// BenchmarkCallGraphOverlay times the per-scan call graph alone: the
// overlay hierarchy and baselayer.CallGraph over each corpus app, opened
// lazily and with its demand closure materialized by one prior scan; one
// op is one app.
func BenchmarkCallGraphOverlay(b *testing.B) {
	data := corpusContainers(b)
	reg := apimodel.NewRegistry()
	base := baselayer.Get()
	apps := make([]*apk.App, len(data))
	for i, d := range data {
		app, err := apk.DecodeLazy(d)
		if err != nil {
			b.Fatal(err)
		}
		checkers.Analyze(app, reg, checkers.Options{Workers: 1})
		apps[i] = app
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		app := apps[i%len(apps)]
		g := base.CallGraph(base.Overlay(app.Program, nil), app.Manifest, callgraph.Options{})
		if g.NumMethods() == 0 {
			b.Fatal("empty graph")
		}
	}
}

// --- pipeline micro-benchmarks ------------------------------------------------

func benchApp(b *testing.B) *apk.App {
	b.Helper()
	return corpus.MustBuild(corpus.AppSpec{Package: "bench.app", Sites: []corpus.SiteSpec{
		{Lib: apimodel.LibBasic, Ctx: corpus.CtxActivity, UseResponse: true, Notify: true},
		{Lib: apimodel.LibVolley, Ctx: corpus.CtxActivity, Notify: true},
		{Lib: apimodel.LibAsyncHTTP, Ctx: corpus.CtxService},
		{Lib: apimodel.LibHttpURL, Ctx: corpus.CtxActivity, Wrap: corpus.WrapAsyncTask},
	}})
}

func BenchmarkScanSingleApp(b *testing.B) {
	app := benchApp(b)
	nc := core.New()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(nc.ScanApp(app).Reports) == 0 {
			b.Fatal("no warnings")
		}
	}
}

func BenchmarkDexEncode(b *testing.B) {
	app := benchApp(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		data := dex.Encode(app.Program)
		b.SetBytes(int64(len(data)))
	}
}

func BenchmarkDexDecode(b *testing.B) {
	app := benchApp(b)
	data := dex.Encode(app.Program)
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dex.Decode(data); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAPKRoundTrip(b *testing.B) {
	app := benchApp(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		data, err := apk.Encode(app)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := apk.Decode(data); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCallGraphBuild(b *testing.B) {
	app := benchApp(b)
	prog := jimple.NewProgram()
	prog.Merge(app.Program)
	prog.Merge(android.Framework())
	prog.Merge(apimodel.Stubs())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h := hierarchy.New(prog)
		g := callgraph.Build(h, app.Manifest)
		if g.NumMethods() == 0 {
			b.Fatal("empty graph")
		}
	}
}

func BenchmarkCorpusGeneration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		apps, err := corpus.GenerateCorpus(int64(i))
		if err != nil || len(apps) != corpus.CorpusSize {
			b.Fatalf("bad corpus: %v", err)
		}
	}
}

func BenchmarkNetsimDownload(b *testing.B) {
	c := netsim.DefaultVolley()
	p := netsim.ThreeGLossy(0.1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.SuccessRate(p, 128*1024, 10, int64(i))
	}
}

func BenchmarkFixerFixAll(b *testing.B) {
	for i := 0; i < b.N; i++ {
		app := corpus.MustBuild(corpus.AppSpec{Package: "bench.fix", Sites: []corpus.SiteSpec{
			{Lib: apimodel.LibBasic, Ctx: corpus.CtxActivity, UseResponse: true},
		}})
		f := fixer.New()
		out, err := f.FixAll(app, 50)
		if err != nil || out.Remaining != 0 {
			b.Fatalf("fix failed: %v (%d remaining)", err, out.Remaining)
		}
	}
}

func BenchmarkUserStudySimulation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := userstudy.Simulate(int64(i))
		if len(res.Trials) == 0 {
			b.Fatal("no trials")
		}
	}
}

func BenchmarkTable9WithICC(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Table9WithICC()
		if err != nil || r.FP != 0 {
			b.Fatalf("bad ICC accuracy table: %v (FP=%d)", err, r.FP)
		}
	}
}

func BenchmarkTable11_GuidelineComparison(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Table11(int64(i))
		if r.Requests == 0 {
			b.Fatal("empty workload")
		}
	}
}

func BenchmarkDynamicComparison(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.DynamicComparison(int64(i))
		if err != nil || r.CrashTotal == 0 {
			b.Fatalf("bad dynamic comparison: %v", err)
		}
	}
}

func BenchmarkInterpreterRun(b *testing.B) {
	app := benchApp(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep := interp.RunApp(app, interp.NetPoor, int64(i))
		if len(rep.Runs) == 0 {
			b.Fatal("no runs")
		}
	}
}

func BenchmarkLintBaseline(b *testing.B) {
	apps := goldenApps(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		total := 0
		for _, app := range apps {
			total += len(lint.Run(app))
		}
		if total == 0 {
			b.Fatal("lint found nothing")
		}
	}
}

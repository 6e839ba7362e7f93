package checkers

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/android"
	"repro/internal/apimodel"
	"repro/internal/jimple"
)

// multiClassApp exercises every pipeline stage at once: checker 1–4
// warnings, a retry loop, Volley constant propagation, and callback
// resolution, spread over many classes and methods.
func multiClassApp() string {
	return strings.Join([]string{
		uncheckedActivity,
		wellBehavedActivity,
		serviceDefaultRetries,
		volleyCallbacks,
		uncheckedResponseUse,
		okHttpCallbackResponse,
		retryLoopNoBackoff,
		sequenceLoop,
	}, "\n")
}

// analyzeSrcQuiet is analyzeSrcOpts without the *testing.T dependency, so
// it can run inside test goroutines.
func analyzeSrcQuiet(src string, opts Options) *Result {
	prog := jimple.MustParse(src)
	man := &android.Manifest{Package: "t"}
	man.Normalize()
	return Analyze(openApp(man, prog), apimodel.NewRegistry(), opts)
}

func renderAll(res *Result) string {
	var b strings.Builder
	for i := range res.Reports {
		b.WriteString(res.Reports[i].Render())
		b.WriteByte('\n')
	}
	return b.String()
}

// TestPipelineDeterministic asserts that two scans of the same app
// produce byte-identical sorted reports and equal stats.
func TestPipelineDeterministic(t *testing.T) {
	src := multiClassApp()
	first := analyzeSrcOpts(t, src, Options{})
	if len(first.Reports) == 0 {
		t.Fatal("multi-class app produced no reports; test app broken")
	}
	again := analyzeSrcOpts(t, src, Options{})
	if got, want := renderAll(again), renderAll(first); got != want {
		t.Errorf("reports differ between two scans:\n--- first ---\n%s--- again ---\n%s", want, got)
	}
	if !reflect.DeepEqual(again.Stats, first.Stats) {
		t.Errorf("stats differ between two scans:\nfirst: %+v\nagain: %+v", first.Stats, again.Stats)
	}
}

// TestPipelineDiagnostics asserts the observability record is populated:
// every stage is present, and the cache counters prove each artifact is
// computed at most once per method while being requested more often
// (i.e. the shared AnalysisContext actually deduplicates work).
func TestPipelineDiagnostics(t *testing.T) {
	res := analyzeSrcOpts(t, multiClassApp(), Options{})
	d := res.Diagnostics
	if d.AppMethods == 0 || d.Sites == 0 {
		t.Errorf("empty volumes: %+v", d)
	}
	for _, name := range []string{"build", "discover", "settings", "parameters", "notifications", "responses", "retryloops"} {
		if d.Stage(name) == nil {
			t.Errorf("stage %q missing from diagnostics", name)
		}
	}
	c := d.Cache
	type pair struct {
		name               string
		computed, requests int
	}
	for _, p := range []pair{
		{"cfg", c.CFGComputed, c.CFGRequests},
		{"reachdefs", c.ReachDefsComputed, c.ReachDefsRequests},
		{"constprop", c.ConstPropComputed, c.ConstPropRequests},
		{"dominators", c.DominatorsComputed, c.DominatorsRequests},
		{"loops", c.LoopsComputed, c.LoopsRequests},
		{"slicer", c.SlicersComputed, c.SlicerRequests},
	} {
		if p.computed > c.Methods {
			t.Errorf("%s computed %d times for %d methods — memoization broken", p.name, p.computed, c.Methods)
		}
		if p.computed > p.requests {
			t.Errorf("%s computed (%d) exceeds requests (%d)", p.name, p.computed, p.requests)
		}
	}
	// CFGs are requested by discovery, checker 1's must-precede,
	// checker 4, and the retry stage: there must be real cache hits.
	if c.CFGHits() <= 0 {
		t.Errorf("no CFG cache hits (%d computed / %d requests)", c.CFGComputed, c.CFGRequests)
	}
	if c.ReachDefsHits() < 0 {
		t.Error("negative reach-defs hits")
	}
}

// TestStageTimingsWithinTotal: a scan runs its stages one after another
// on its caller's goroutine, so the stage durations of a multi-class app
// sum to at most the scan's wall time. Overlapping stages would break it.
func TestStageTimingsWithinTotal(t *testing.T) {
	for _, opts := range []Options{{Workers: 4}, {Workers: 4, Validate: true}} {
		d := analyzeSrcOpts(t, multiClassApp(), opts).Diagnostics
		var sum time.Duration
		for _, s := range d.Stages {
			sum += s.Duration
		}
		if len(d.Stages) < 10 || sum > d.Total {
			t.Errorf("validate=%v: %d stages sum to %v, over the scan's total %v", opts.Validate, len(d.Stages), sum, d.Total)
		}
	}
}

// TestPipelineConcurrentScans runs one Analyze-backed scan per goroutine
// — meaningful under -race, and the results must all agree.
func TestPipelineConcurrentScans(t *testing.T) {
	src := multiClassApp()
	want := renderAll(analyzeSrcOpts(t, src, Options{Workers: 1}))
	const goroutines = 6
	results := make([]string, goroutines)
	done := make(chan int, goroutines)
	for g := 0; g < goroutines; g++ {
		go func(g int) {
			res := analyzeSrcQuiet(src, Options{Workers: 4})
			results[g] = renderAll(res)
			done <- g
		}(g)
	}
	for i := 0; i < goroutines; i++ {
		<-done
	}
	for g, got := range results {
		if got != want {
			t.Errorf("goroutine %d diverged from sequential scan", g)
		}
	}
}

// TestStatsAddCoversAllCounterFields guards the stage merge: if a new int
// counter is added to Stats without extending Stats.add, scans would
// silently drop it. The check sets every int field to 1,
// sums, and expects 2 everywhere.
func TestStatsAddCoversAllCounterFields(t *testing.T) {
	ones := func() Stats {
		var s Stats
		v := reflect.ValueOf(&s).Elem()
		for i := 0; i < v.NumField(); i++ {
			if v.Field(i).Kind() == reflect.Int {
				v.Field(i).SetInt(1)
			}
		}
		return s
	}
	a, b := ones(), ones()
	a.add(&b)
	v := reflect.ValueOf(a)
	for i := 0; i < v.NumField(); i++ {
		if v.Field(i).Kind() != reflect.Int {
			continue
		}
		if got := v.Field(i).Int(); got != 2 {
			t.Errorf("Stats.add drops field %s (got %d, want 2)", v.Type().Field(i).Name, got)
		}
	}
}

// Guard against stage-name drift between the pipeline and Diagnostics
// consumers: stage timings must appear in the fixed pipeline order.
func TestDiagnosticsStageOrder(t *testing.T) {
	res := analyzeSrcOpts(t, multiClassApp(), Options{Workers: 3})
	want := []string{"build", "summaries", "discover", "settings", "parameters", "notifications", "responses", "offlinestate", "stalechecks", "endpoints", "retryloops"}
	if len(res.Diagnostics.Stages) != len(want) {
		t.Fatalf("stage count: got %d, want %d (%v)", len(res.Diagnostics.Stages), len(want), res.Diagnostics.Stages)
	}
	for i, s := range res.Diagnostics.Stages {
		if s.Name != want[i] {
			t.Errorf("stage %d: got %q, want %q", i, s.Name, want[i])
		}
	}
	if r := res.Diagnostics.Render(); !strings.Contains(r, "cache (computed/requests") {
		t.Errorf("Render missing cache line:\n%s", r)
	}
}

// ExampleDiagnostics_merge is compile-checked documentation of corpus
// aggregation.
func ExampleDiagnostics_merge() {
	var agg Diagnostics
	agg.Merge(Diagnostics{AppMethods: 2, Sites: 1})
	agg.Merge(Diagnostics{AppMethods: 3, Sites: 2})
	fmt.Println(agg.AppMethods, agg.Sites)
	// Output: 5 3
}

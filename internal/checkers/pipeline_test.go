package checkers

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

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

// TestPipelineDeterministicAcrossWorkers asserts the acceptance criterion
// that a parallel scan produces byte-identical sorted reports and equal
// stats to a sequential one.
func TestPipelineDeterministicAcrossWorkers(t *testing.T) {
	src := multiClassApp()
	seq := analyzeSrcOpts(t, src, Options{Workers: 1})
	if len(seq.Reports) == 0 {
		t.Fatal("multi-class app produced no reports; test app broken")
	}
	seqText := renderAll(seq)
	for _, workers := range []int{2, 8} {
		par := analyzeSrcOpts(t, src, Options{Workers: workers})
		if got := renderAll(par); got != seqText {
			t.Errorf("Workers=%d reports differ from Workers=1:\n--- sequential ---\n%s--- parallel ---\n%s",
				workers, seqText, got)
		}
		if !reflect.DeepEqual(par.Stats, seq.Stats) {
			t.Errorf("Workers=%d stats differ:\nsequential: %+v\nparallel:   %+v", workers, seq.Stats, par.Stats)
		}
	}
}

// TestPipelineDiagnostics asserts the observability record is populated:
// every stage is present, and the cache counters prove each artifact is
// computed at most once per method while being requested more often
// (i.e. the shared AnalysisContext actually deduplicates work).
func TestPipelineDiagnostics(t *testing.T) {
	for _, workers := range []int{1, 4} {
		res := analyzeSrcOpts(t, multiClassApp(), Options{Workers: workers})
		d := res.Diagnostics
		if d.Workers != workers {
			t.Errorf("Workers=%d: diagnostics report %d workers", workers, d.Workers)
		}
		if d.AppMethods == 0 || d.Sites == 0 {
			t.Errorf("Workers=%d: empty volumes: %+v", workers, d)
		}
		for _, name := range []string{"build", "discover", "settings", "parameters", "notifications", "responses", "retryloops"} {
			if d.Stage(name) == nil {
				t.Errorf("Workers=%d: stage %q missing from diagnostics", workers, name)
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
				t.Errorf("Workers=%d: %s computed %d times for %d methods — memoization broken",
					workers, p.name, p.computed, c.Methods)
			}
			if p.computed > p.requests {
				t.Errorf("Workers=%d: %s computed (%d) exceeds requests (%d)", workers, p.name, p.computed, p.requests)
			}
		}
		// CFGs are requested by discovery, checker 1's must-precede,
		// checker 4, and the retry stage: there must be real cache hits.
		if c.CFGHits() <= 0 {
			t.Errorf("Workers=%d: no CFG cache hits (%d computed / %d requests)",
				workers, c.CFGComputed, c.CFGRequests)
		}
		if c.ReachDefsHits() < 0 {
			t.Errorf("Workers=%d: negative reach-defs hits", workers)
		}
	}
}

// TestPipelineConcurrentScans exercises one Analyze-backed scan per
// goroutine with an internally parallel pipeline — meaningful under
// -race, and the results must all agree.
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

// TestStatsAddCoversAllCounterFields guards the merge barrier: if a new
// int counter is added to Stats without extending Stats.add, parallel
// scans would silently drop it. The check sets every int field to 1,
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

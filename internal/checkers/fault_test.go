package checkers

import (
	"context"
	"errors"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/android"
	"repro/internal/apimodel"
	"repro/internal/jimple"
	"repro/internal/report"
)

// analyzeCtx is analyzeSrcQuiet with a caller context.
func analyzeCtx(ctx context.Context, src string, opts Options) *Result {
	prog := jimple.MustParse(src)
	man := &android.Manifest{Package: "t"}
	man.Normalize()
	return AnalyzeContext(ctx, openApp(man, prog), apimodel.NewRegistry(), opts)
}

// checkerStageCauses maps each checker stage to the report causes only it
// can emit; killing a stage must remove exactly these causes from the
// report stream.
var checkerStageCauses = map[string][]report.Cause{
	"settings":      {report.CauseNoConnectivityCheck, report.CauseNoTimeout, report.CauseNoRetryConfig},
	"parameters":    {report.CauseOverRetryPost, report.CauseOverRetryService, report.CauseNoRetryTimeSensitive},
	"notifications": {report.CauseNoFailureNotification, report.CauseNoErrorTypeCheck},
	"responses":     {report.CauseNoResponseCheck},
	"retryloops":    {report.CauseAggressiveRetryLoop},
}

// renderExcluding renders reports, skipping the given causes.
func renderExcluding(res *Result, skip []report.Cause) string {
	excluded := make(map[report.Cause]bool, len(skip))
	for _, c := range skip {
		excluded[c] = true
	}
	var b strings.Builder
	for i := range res.Reports {
		if excluded[res.Reports[i].Cause] {
			continue
		}
		b.WriteString(res.Reports[i].Render())
		b.WriteByte('\n')
	}
	return b.String()
}

// TestStagePanicIsolation is the acceptance criterion: a checker stage
// whose every work unit panics yields a degraded Result — no process
// crash — whose surviving stages' reports are byte-identical to a clean
// scan's, whatever Options.Workers says (the analysis ignores it).
func TestStagePanicIsolation(t *testing.T) {
	src := multiClassApp()
	clean := analyzeSrcQuiet(src, Options{Workers: 1})
	if clean.Incomplete || len(clean.Reports) == 0 {
		t.Fatalf("clean scan broken: incomplete=%v reports=%d", clean.Incomplete, len(clean.Reports))
	}
	for stage, causes := range checkerStageCauses {
		want := renderExcluding(clean, causes)
		if want == renderAll(clean) {
			t.Fatalf("stage %s emits no reports on the test app; isolation not exercised", stage)
		}
		for _, workers := range []int{1, 4} {
			opts := Options{Workers: workers}
			opts.unitHook = func(s string, unit int) {
				if s == stage {
					panic("injected fault in " + s)
				}
			}
			res := analyzeSrcQuiet(src, opts)
			if !res.Incomplete {
				t.Fatalf("stage %s workers=%d: panicked scan not marked Incomplete", stage, workers)
			}
			if err := res.Err(); !errors.Is(err, ErrStagePanic) {
				t.Errorf("stage %s workers=%d: Err()=%v, want ErrStagePanic", stage, workers, err)
			}
			for _, e := range res.Diagnostics.Errors {
				if e.Stage != stage {
					t.Errorf("stage %s workers=%d: stray error from stage %q: %v", stage, workers, e.Stage, &e)
				}
				if !errors.Is(&e, ErrStagePanic) {
					t.Errorf("stage %s workers=%d: error kind %v, want ErrStagePanic", stage, workers, e.Kind)
				}
				if e.Stack == "" {
					t.Errorf("stage %s workers=%d: panic record missing stack", stage, workers)
				}
			}
			if got := renderAll(res); got != want {
				t.Errorf("stage %s workers=%d: surviving reports differ from clean scan minus the stage:\n--- want ---\n%s--- got ---\n%s",
					stage, workers, want, got)
			}
		}
	}
}

// TestUnitPanicIsolation kills a single work unit: only that unit's
// findings are lost, the error record names the unit, and the degraded
// output is identical across runs, whatever Options.Workers says.
func TestUnitPanicIsolation(t *testing.T) {
	src := multiClassApp()
	outputs := make(map[int]string)
	for _, workers := range []int{1, 4} {
		opts := Options{Workers: workers}
		opts.unitHook = func(s string, unit int) {
			if s == "parameters" && unit == 0 {
				panic("injected unit fault")
			}
		}
		res := analyzeSrcQuiet(src, opts)
		if !res.Incomplete {
			t.Fatalf("workers=%d: unit panic not marked Incomplete", workers)
		}
		var unitErrs []ScanError
		for _, e := range res.Diagnostics.Errors {
			if e.Unit >= 0 {
				unitErrs = append(unitErrs, e)
			}
		}
		if len(unitErrs) != 1 || unitErrs[0].Stage != "parameters" || unitErrs[0].Unit != 0 {
			t.Errorf("workers=%d: errors=%v, want exactly one unit error at parameters/0", workers, res.Diagnostics.Errors)
		}
		outputs[workers] = renderAll(res)
	}
	if outputs[1] != outputs[4] {
		t.Errorf("degraded scan nondeterministic across workers:\n--- workers=1 ---\n%s--- workers=4 ---\n%s",
			outputs[1], outputs[4])
	}
}

// TestErrorsFollowStageOrder: Diagnostics.Errors sorts by the pipeline's
// stage order, for every stage. Unit 0 of three late checker stages
// panics, and the errors must name them in run order: offlinestate,
// endpoints, retryloops.
func TestErrorsFollowStageOrder(t *testing.T) {
	opts := Options{Workers: 1}
	want := []string{"offlinestate", "endpoints", "retryloops"}
	opts.unitHook = func(s string, unit int) {
		if unit == 0 && slices.Contains(want, s) {
			panic("injected unit fault")
		}
	}
	res := analyzeSrcQuiet(multiClassApp(), opts)
	var got []string
	for _, e := range res.Diagnostics.Errors {
		got = append(got, e.Stage)
	}
	if !slices.Equal(got, want) {
		t.Errorf("error stages = %v, want %v", got, want)
	}
}

// TestDeadlineMidDiscovery is the acceptance criterion for cancellation:
// an Options.Timeout expiring while discovery is under way stops the scan
// promptly (far fewer work units run than exist) and yields a degraded
// Result matching ErrDeadline, not a hang or a crash.
func TestDeadlineMidDiscovery(t *testing.T) {
	src := multiClassApp()
	total := analyzeSrcQuiet(src, Options{Workers: 1}).Diagnostics.AppMethods
	if total < 10 {
		t.Fatalf("test app too small to observe early cutoff: %d methods", total)
	}
	for _, workers := range []int{1, 4} {
		var ran atomic.Int64
		opts := Options{Workers: workers, Timeout: 10 * time.Millisecond}
		opts.unitHook = func(s string, unit int) {
			if s == "discover" {
				ran.Add(1)
				time.Sleep(25 * time.Millisecond)
			}
		}
		start := time.Now()
		res := analyzeCtx(context.Background(), src, opts)
		elapsed := time.Since(start)
		if !res.Incomplete {
			t.Fatalf("workers=%d: expired deadline not marked Incomplete", workers)
		}
		if err := res.Err(); !errors.Is(err, ErrDeadline) {
			t.Errorf("workers=%d: Err()=%v, want ErrDeadline", workers, err)
		}
		if n := int(ran.Load()); n >= total {
			t.Errorf("workers=%d: deadline ignored — all %d discovery units ran", workers, n)
		}
		if elapsed > 3*time.Second {
			t.Errorf("workers=%d: cancellation not prompt: took %v", workers, elapsed)
		}
	}
}

// TestCanceledBeforeScan: a context canceled up front degrades the scan
// from the build stage on and classifies as ErrCanceled.
func TestCanceledBeforeScan(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res := analyzeCtx(ctx, multiClassApp(), Options{Workers: 2})
	if !res.Incomplete {
		t.Fatal("canceled scan not marked Incomplete")
	}
	if err := res.Err(); !errors.Is(err, ErrCanceled) {
		t.Errorf("Err()=%v, want ErrCanceled", err)
	}
	if len(res.Reports) != 0 {
		t.Errorf("canceled-before-build scan produced %d reports", len(res.Reports))
	}
	if res.Diagnostics.Errors[0].Stage != "build" {
		t.Errorf("first error from stage %q, want build", res.Diagnostics.Errors[0].Stage)
	}
}

// TestCancelMidDiscoveryExternal cancels the caller's context from inside
// a discovery unit — the cooperative checks must stop dispatch without
// external deadline help.
func TestCancelMidDiscoveryExternal(t *testing.T) {
	src := multiClassApp()
	total := analyzeSrcQuiet(src, Options{Workers: 1}).Diagnostics.AppMethods
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var ran atomic.Int64
	opts := Options{Workers: 4}
	opts.unitHook = func(s string, unit int) {
		if s == "discover" {
			if ran.Add(1) == 2 {
				cancel()
			}
			time.Sleep(time.Millisecond)
		}
	}
	res := analyzeCtx(ctx, src, opts)
	if !res.Incomplete {
		t.Fatal("canceled scan not marked Incomplete")
	}
	if err := res.Err(); !errors.Is(err, ErrCanceled) {
		t.Errorf("Err()=%v, want ErrCanceled", err)
	}
	if n := int(ran.Load()); n >= total {
		t.Errorf("cancellation ignored — all %d discovery units ran", n)
	}
}

// TestSummaryPanicTriedOnce: a summary producer that panics runs exactly
// once. The scan records one stage panic, and every later consumer reads
// the missing summaries as intraprocedural facts instead of running the
// producer (and panicking) again.
func TestSummaryPanicTriedOnce(t *testing.T) {
	intra := analyzeSrcQuiet(helperCfgApp, Options{Intraprocedural: true})
	if countCause(intra, report.CauseNoTimeout) != 1 {
		t.Fatalf("fixture broken: intra mode should miss the helper timeout: %v", causes(intra))
	}
	runs := 0
	opts := Options{}
	opts.unitHook = func(s string, unit int) {
		if s == "summaries" {
			runs++
			panic("injected summary fault")
		}
	}
	res := analyzeSrcQuiet(helperCfgApp, opts)
	if runs != 1 {
		t.Errorf("summary producer ran %d times, want 1", runs)
	}
	if errs := res.Diagnostics.Errors; len(errs) != 1 || errs[0].Stage != "summaries" ||
		errs[0].Unit != -1 || !errors.Is(&errs[0], ErrStagePanic) {
		t.Errorf("errors = %v, want one stage panic in summaries", errs)
	}
	if res.Diagnostics.Cache.SummariesComputed != 0 {
		t.Errorf("summaries counted after a failed build: %+v", res.Diagnostics.Cache)
	}
	if got, want := renderAll(res), renderAll(intra); got != want {
		t.Errorf("consumers did not degrade to intraprocedural facts:\n--- intra ---\n%s--- got ---\n%s", want, got)
	}
}

// TestScanErrorTaxonomy pins the ScanError formatting and errors.Is
// behaviour the CLI and corpus harness rely on.
func TestScanErrorTaxonomy(t *testing.T) {
	unit := &ScanError{Kind: ErrStagePanic, Stage: "responses", Unit: 3, Msg: "boom"}
	if got, want := unit.Error(), "stage responses unit 3: stage panicked: boom"; got != want {
		t.Errorf("unit error = %q, want %q", got, want)
	}
	stage := &ScanError{Kind: ErrDeadline, Stage: "discover", Unit: -1, Msg: "context deadline exceeded"}
	if !strings.HasPrefix(stage.Error(), "stage discover: scan deadline exceeded") {
		t.Errorf("stage error = %q", stage.Error())
	}
	scan := &ScanError{Kind: ErrDecode, Unit: -1, Msg: "bad magic"}
	if got, want := scan.Error(), "decode failed: bad magic"; got != want {
		t.Errorf("scan error = %q, want %q", got, want)
	}
	for _, e := range []*ScanError{unit, stage, scan} {
		if !errors.Is(e, e.Kind) {
			t.Errorf("errors.Is(%v, kind) = false", e)
		}
	}
	errs := []ScanError{
		{Kind: ErrStagePanic, Stage: "responses", Unit: 2},
		{Kind: ErrStagePanic, Stage: "discover", Unit: 5},
		{Kind: ErrStagePanic, Stage: "responses", Unit: 0},
	}
	sortScanErrors(errs)
	if errs[0].Stage != "discover" || errs[1].Unit != 0 || errs[2].Unit != 2 {
		t.Errorf("sortScanErrors order wrong: %v", errs)
	}
}

// TestCleanScanStaysComplete guards the common path: no hook, no timeout
// — no errors, Incomplete false, Err nil.
func TestCleanScanStaysComplete(t *testing.T) {
	res := analyzeCtx(context.Background(), multiClassApp(), Options{Workers: 4, Timeout: time.Minute})
	if res.Incomplete || len(res.Diagnostics.Errors) != 0 || res.Err() != nil {
		t.Errorf("clean scan degraded: incomplete=%v errors=%v err=%v",
			res.Incomplete, res.Diagnostics.Errors, res.Err())
	}
}

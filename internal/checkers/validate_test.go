package checkers

import (
	"context"
	"errors"
	"strings"
	"testing"

	"repro/internal/report"
)

// countVerdicts tallies the verdicts stamped on a result's reports.
func countVerdicts(res *Result) map[string]int {
	m := make(map[string]int)
	for i := range res.Reports {
		m[res.Reports[i].Validation]++
	}
	return m
}

// TestValidateAssignsVerdictToEveryReport is the acceptance criterion:
// with Options.Validate every warning is partitioned into exactly one of
// confirmed / unconfirmed / not-validated, at least one warning of the
// canonical buggy corpus is dynamically Confirmed, and the diagnostics
// counters agree with the per-report verdicts. Without the option the
// reports are byte-identical to the historical output (no verdict
// fields).
func TestValidateAssignsVerdictToEveryReport(t *testing.T) {
	src := multiClassApp()

	plain := analyzeSrcQuiet(src, Options{Workers: 1})
	if plain.Incomplete || len(plain.Reports) == 0 {
		t.Fatalf("plain scan broken: incomplete=%v reports=%d", plain.Incomplete, len(plain.Reports))
	}
	for i := range plain.Reports {
		if plain.Reports[i].Validation != "" || plain.Reports[i].ValidationNote != "" {
			t.Fatalf("report %d carries a verdict without Options.Validate: %q", i, plain.Reports[i].Validation)
		}
	}

	res := analyzeSrcQuiet(src, Options{Workers: 1, Validate: true})
	if res.Incomplete {
		t.Fatalf("validated scan degraded: %v", res.Err())
	}
	if len(res.Reports) != len(plain.Reports) {
		t.Fatalf("validation changed the warning count: %d vs %d", len(res.Reports), len(plain.Reports))
	}
	verdicts := countVerdicts(res)
	if verdicts[""] != 0 {
		t.Errorf("%d reports left without a verdict", verdicts[""])
	}
	if verdicts[report.ValidationConfirmed] == 0 {
		t.Errorf("no warning confirmed on the canonical buggy corpus; verdicts: %v", verdicts)
	}
	for i := range res.Reports {
		v := res.Reports[i].Validation
		if v != report.ValidationConfirmed && v != report.ValidationUnconfirmed && v != report.ValidationNotValidated {
			t.Errorf("report %d has verdict %q outside the taxonomy", i, v)
		}
	}

	vs := res.Diagnostics.Validate
	if got := vs.Confirmed + vs.Unconfirmed + vs.NotValidated; got != len(res.Reports) {
		t.Errorf("diagnostics count %d verdicts, want %d", got, len(res.Reports))
	}
	if vs.Confirmed != verdicts[report.ValidationConfirmed] ||
		vs.Unconfirmed != verdicts[report.ValidationUnconfirmed] ||
		vs.NotValidated != verdicts[report.ValidationNotValidated] {
		t.Errorf("diagnostics %+v disagree with per-report verdicts %v", vs, verdicts)
	}
	if vs.Replays == 0 {
		t.Error("diagnostics recorded no replays")
	}
}

// TestValidatePanicDegradesOneWarning: a replay that panics loses only
// that warning's verdict — the pipeline sweep stamps it NotValidated, the
// rest validate normally, and the scan is degraded (blocking cachewrite),
// never aborted.
func TestValidatePanicDegradesOneWarning(t *testing.T) {
	src := multiClassApp()
	opts := Options{Workers: 1, Validate: true}
	opts.unitHook = func(s string, unit int) {
		if s == "validate" && unit == 0 {
			panic("injected replay fault")
		}
	}
	res := analyzeSrcQuiet(src, opts)
	if !res.Incomplete {
		t.Fatal("panicking replay not marked Incomplete")
	}
	if err := res.Err(); !errors.Is(err, ErrStagePanic) {
		t.Errorf("Err()=%v, want ErrStagePanic", err)
	}
	if len(res.Reports) == 0 {
		t.Fatal("degraded validation dropped the reports")
	}
	first := &res.Reports[0]
	if first.Validation != report.ValidationNotValidated || first.ValidationNote != "validation did not complete" {
		t.Errorf("panicked unit's report = (%q, %q), want swept NotValidated", first.Validation, first.ValidationNote)
	}
	validated := 0
	for i := 1; i < len(res.Reports); i++ {
		if res.Reports[i].Validation == "" {
			t.Errorf("report %d has no verdict after single-unit panic", i)
		}
		if res.Reports[i].ValidationNote != "validation did not complete" {
			validated++
		}
	}
	if validated == 0 {
		t.Error("no other warning was validated; the panic was not isolated to one unit")
	}
}

// TestValidateCancelMarksRemainderNotValidated: a context canceled
// mid-validation stops replaying promptly, records ErrCanceled once, and
// the unreached warnings are swept to NotValidated — every report still
// carries a verdict.
func TestValidateCancelMarksRemainderNotValidated(t *testing.T) {
	src := multiClassApp()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	opts := Options{Workers: 1, Validate: true}
	opts.unitHook = func(s string, unit int) {
		if s == "validate" && unit == 0 {
			cancel()
		}
	}
	res := analyzeCtx(ctx, src, opts)
	if !res.Incomplete {
		t.Fatal("canceled validation not marked Incomplete")
	}
	if err := res.Err(); !errors.Is(err, ErrCanceled) {
		t.Errorf("Err()=%v, want ErrCanceled", err)
	}
	if len(res.Reports) < 2 {
		t.Fatalf("test app yields %d reports; cannot observe a swept remainder", len(res.Reports))
	}
	for i := range res.Reports {
		if res.Reports[i].Validation == "" {
			t.Errorf("report %d has no verdict after cancellation", i)
		}
	}
	for i := 1; i < len(res.Reports); i++ {
		if res.Reports[i].Validation != report.ValidationNotValidated {
			t.Errorf("report %d reached verdict %q after cancellation at unit 0", i, res.Reports[i].Validation)
		}
	}
}

// TestValidateDeterministic: verdicts and notes are part of the rendered
// report, so two validated scans of the same app render byte-identically.
func TestValidateDeterministic(t *testing.T) {
	src := multiClassApp()
	first := analyzeSrcQuiet(src, Options{Validate: true})
	if first.Incomplete || len(first.Reports) == 0 {
		t.Fatalf("validated scan broken: incomplete=%v reports=%d", first.Incomplete, len(first.Reports))
	}
	again := analyzeSrcQuiet(src, Options{Validate: true})
	if got, want := renderAll(again), renderAll(first); got != want {
		t.Errorf("validated reports differ between two scans:\n--- first ---\n%s--- again ---\n%s", want, got)
	}
}

// TestValidateVerdictsSurviveCacheRoundTrip: verdicts persist through the
// result cache — a warm scan restores them byte-identically without
// re-running a single replay.
func TestValidateVerdictsSurviveCacheRoundTrip(t *testing.T) {
	dir := t.TempDir()
	src := multiClassApp()
	opts := Options{Workers: 1, Validate: true, CacheDir: dir, CacheMode: CacheRW}

	cold := analyzeSrcQuiet(src, opts)
	if cold.Incomplete || len(cold.Reports) == 0 {
		t.Fatalf("cold scan broken: incomplete=%v reports=%d", cold.Incomplete, len(cold.Reports))
	}
	warm := analyzeSrcQuiet(src, opts)
	if warm.Diagnostics.Cache.StoreHits == 0 {
		t.Fatalf("warm scan missed the result cache: %+v", warm.Diagnostics.Cache)
	}
	if warm.Diagnostics.Validate.Replays != 0 {
		t.Errorf("warm scan re-ran %d replays; verdicts should restore from cache", warm.Diagnostics.Validate.Replays)
	}
	if got, want := renderAll(warm), renderAll(cold); got != want {
		t.Errorf("cached verdicts differ from cold scan:\n--- cold ---\n%s--- warm ---\n%s", want, got)
	}
	for i := range warm.Reports {
		if warm.Reports[i].Validation == "" {
			t.Errorf("restored report %d lost its verdict", i)
		}
	}

	// A validated and an unvalidated scan of the same app must not answer
	// each other: the options fingerprint separates the cache entries.
	plain := analyzeSrcQuiet(src, Options{Workers: 1, CacheDir: dir, CacheMode: CacheRW})
	for i := range plain.Reports {
		if plain.Reports[i].Validation != "" {
			t.Fatalf("unvalidated scan restored a validated cache entry (report %d = %q)",
				i, plain.Reports[i].Validation)
		}
	}
}

// spinLoopActivity never leaves its request loop even when requests
// succeed, so every replay — baseline included — dies on the step budget.
const spinLoopActivity = `class t.Spin extends android.app.Activity {
  method onCreate(android.os.Bundle)void {
    local c com.turbomanage.httpclient.BasicHttpClient
    local r com.turbomanage.httpclient.HttpResponse
    local e java.io.IOException
    c = new com.turbomanage.httpclient.BasicHttpClient
    specialinvoke c com.turbomanage.httpclient.BasicHttpClient.<init>()void
    L0:
    goto L1
    L1:
    r = virtualinvoke c com.turbomanage.httpclient.BasicHttpClient.get(java.lang.String)com.turbomanage.httpclient.HttpResponse "https://x"
    L2:
    goto L0
    L3:
    e = caught
    goto L0
    trap L1 L2 L3 java.io.IOException
  }
}`

// TestValidateBudgetExhaustionIsNotValidated is the satellite-3 verdict:
// a warning whose witness replay cannot finish within the step budget is
// NotValidated — an honest "could not check" — never a false Unconfirmed
// that would undermine the false-positive statistics.
func TestValidateBudgetExhaustionIsNotValidated(t *testing.T) {
	res := analyzeSrcQuiet(spinLoopActivity, Options{Workers: 1, Validate: true})
	if res.Incomplete || len(res.Reports) == 0 {
		t.Fatalf("scan broken: incomplete=%v reports=%d", res.Incomplete, len(res.Reports))
	}
	for i := range res.Reports {
		r := &res.Reports[i]
		if r.Validation != report.ValidationNotValidated {
			t.Errorf("%s: verdict %q (%s), want not-validated on a budget-bound replay",
				r.Cause, r.Validation, r.ValidationNote)
		}
	}
}

// TestValidateConfirmsRunawayLoop: for CauseAggressiveRetryLoop — and
// only there — exhausting the budget under an injected fault IS the
// predicted defect, so the warning is Confirmed as a runaway loop. The
// fixture's loop exits on the first success, so the NetOK baseline stays
// within budget and only the disruption scenarios spin.
func TestValidateConfirmsRunawayLoop(t *testing.T) {
	res := analyzeSrcQuiet(retryLoopNoBackoff, Options{Workers: 1, Validate: true})
	if res.Incomplete || len(res.Reports) == 0 {
		t.Fatalf("scan broken: incomplete=%v reports=%d", res.Incomplete, len(res.Reports))
	}
	found := false
	for i := range res.Reports {
		r := &res.Reports[i]
		if r.Cause != report.CauseAggressiveRetryLoop {
			continue
		}
		found = true
		if r.Validation != report.ValidationConfirmed || !strings.Contains(r.ValidationNote, "runaway-loop") {
			t.Errorf("retry-loop warning = (%q, %q), want confirmed runaway-loop", r.Validation, r.ValidationNote)
		}
	}
	if !found {
		t.Fatal("no CauseAggressiveRetryLoop warning on the retry-loop fixture")
	}
}

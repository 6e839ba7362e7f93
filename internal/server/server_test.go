package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/report"
	"repro/internal/testutil"
)

// fixtureAppBytes encodes the canonical buggy fixture app (the same shape
// internal/core's tests scan): one Activity firing an unchecked,
// untimeouted, unvalidated request. The encoding lives in
// internal/testutil so the smoke clients and multi-process tests share it.
func fixtureAppBytes(t *testing.T) []byte {
	t.Helper()
	return testutil.MustFixtureApp(t)
}

// quietLogger keeps test output clean while still exercising the slog
// paths.
func quietLogger() *slog.Logger {
	return slog.New(slog.NewJSONHandler(io.Discard, nil))
}

// newTestServer builds, starts, and wires the service behind httptest,
// with cleanup registered.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Logger == nil {
		cfg.Logger = quietLogger()
	}
	s := New(cfg)
	s.Start()
	return s, serveTest(t, s, s.Handler())
}

// serveTest serves h (s's routes, possibly wrapped) behind httptest and
// registers the cleanup that closes it and shuts s down. It does not
// start s.
func serveTest(t *testing.T, s *Server, h http.Handler) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(h)
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("Shutdown: %v", err)
		}
	})
	return ts
}

// submit POSTs app bytes and returns the accepted job ID.
func submit(t *testing.T, ts *httptest.Server, body []byte, query string) string {
	t.Helper()
	resp, err := http.Post(ts.URL+"/scan"+query, "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST /scan: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("POST /scan = %d, want 202; body: %s", resp.StatusCode, b)
	}
	var ack struct{ ID, Status string }
	if err := json.NewDecoder(resp.Body).Decode(&ack); err != nil {
		t.Fatalf("decode ack: %v", err)
	}
	if ack.ID == "" || ack.Status != string(StatusQueued) {
		t.Fatalf("ack = %+v", ack)
	}
	return ack.ID
}

// await polls GET /scan/{id} until the job reaches a terminal status.
func await(t *testing.T, ts *httptest.Server, id string) Job {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for {
		resp, err := http.Get(ts.URL + "/scan/" + id)
		if err != nil {
			t.Fatalf("GET /scan/%s: %v", id, err)
		}
		if resp.StatusCode != http.StatusOK {
			b, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			t.Fatalf("GET /scan/%s = %d; body: %s", id, resp.StatusCode, b)
		}
		var job Job
		err = json.NewDecoder(resp.Body).Decode(&job)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("decode job: %v", err)
		}
		if job.Status == StatusDone || job.Status == StatusFailed {
			return job
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in status %q", id, job.Status)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func getBody(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read %s: %v", url, err)
	}
	return resp.StatusCode, string(b)
}

// TestScanOverHTTPMatchesCLI is the tentpole's acceptance check: the
// report text a job returns must be byte-identical to what the CLI's text
// mode prints for the same app (both sides render through
// report.RenderAll), and the stats must agree with a direct core scan.
func TestScanOverHTTPMatchesCLI(t *testing.T) {
	app := fixtureAppBytes(t)
	_, ts := newTestServer(t, Config{})

	id := submit(t, ts, app, "?name=demo.apk")
	job := await(t, ts, id)
	if job.Status != StatusDone || job.Degraded {
		t.Fatalf("job = %+v, want clean done", job)
	}
	if job.Name != "demo.apk" {
		t.Errorf("job name = %q", job.Name)
	}

	direct, err := core.New().ScanBytes(app)
	if err != nil {
		t.Fatalf("direct scan: %v", err)
	}
	wantText := report.RenderAll(direct.Reports)
	if wantText == "" {
		t.Fatal("fixture app produced no reports")
	}
	if job.ReportText != wantText {
		t.Errorf("HTTP report text differs from CLI text:\n--- http ---\n%s\n--- cli ---\n%s", job.ReportText, wantText)
	}
	if job.Warnings != len(direct.Reports) || job.Requests != direct.Stats.Requests {
		t.Errorf("job counters (%d warnings, %d requests) disagree with direct scan (%d, %d)",
			job.Warnings, job.Requests, len(direct.Reports), direct.Stats.Requests)
	}
	if len(job.Reports) != len(direct.Reports) {
		t.Errorf("structured reports: %d vs %d", len(job.Reports), len(direct.Reports))
	}
}

// TestHealthzAndMetrics: the liveness probe answers 200, and /metrics
// exposes the scan counters the ISSUE's acceptance criteria name — stage
// timings, cache counters, queue depth — in Prometheus text format.
func TestHealthzAndMetrics(t *testing.T) {
	app := fixtureAppBytes(t)
	_, ts := newTestServer(t, Config{})
	await(t, ts, submit(t, ts, app, ""))

	if code, body := getBody(t, ts.URL+"/healthz"); code != http.StatusOK || body != "ok\n" {
		t.Fatalf("/healthz = %d %q", code, body)
	}

	_, metricsText := getBody(t, ts.URL+"/metrics")
	for _, want := range []string{
		`nchecker_jobs_total{status="done"} 1`,
		"nchecker_jobs_submitted_total 1",
		"nchecker_degraded_scans_total 0",
		"nchecker_jobs_inflight 0",
		"nchecker_queue_depth 0",
		"nchecker_scan_seconds_count 1",
		`nchecker_stage_seconds_total{stage="build"}`,
		`nchecker_stage_items_total{stage="discover"}`,
		`nchecker_checker_warnings_total{family="1",checker="settings"}`,
		`nchecker_checker_warnings_total{family="8",checker="retryloops"}`,
		"nchecker_cache_cfg_requests_total",
		"nchecker_cache_store_hits_total 0",
		"# TYPE nchecker_scan_seconds histogram",
		"# TYPE nchecker_jobs_total counter",
	} {
		if !strings.Contains(metricsText, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	if !strings.Contains(metricsText, "nchecker_reports_total") {
		t.Errorf("/metrics missing reports counter")
	}
}

// TestDeadlineHitJobIsDegradedNot500: a job whose deadline expires returns
// a degraded report over HTTP 200 — never a 500 — and bumps the degraded
// counter.
func TestDeadlineHitJobIsDegradedNot500(t *testing.T) {
	app := fixtureAppBytes(t)
	_, ts := newTestServer(t, Config{JobTimeout: time.Nanosecond})

	job := await(t, ts, submit(t, ts, app, ""))
	if job.Status != StatusDone {
		t.Fatalf("deadline-hit job status = %q, want done (degraded, not failed)", job.Status)
	}
	if !job.Degraded {
		t.Fatal("deadline-hit job not marked degraded")
	}
	if job.Error == "" {
		t.Error("degraded job carries no error explanation")
	}
	_, metricsText := getBody(t, ts.URL+"/metrics")
	for _, want := range []string{
		"nchecker_degraded_scans_total 1",
		`nchecker_jobs_total{status="degraded"} 1`,
	} {
		if !strings.Contains(metricsText, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestPerRequestTimeoutCannotExceedServerBound: ?timeout= may tighten the
// server deadline but never loosen it.
func TestPerRequestTimeoutCannotExceedServerBound(t *testing.T) {
	if d, err := jobTimeout("5s", time.Minute); err != nil || d != 5*time.Second {
		t.Errorf("tighten: %v %v", d, err)
	}
	if d, err := jobTimeout("5m", time.Minute); err != nil || d != time.Minute {
		t.Errorf("loosen clamped: %v %v", d, err)
	}
	if d, err := jobTimeout("", time.Minute); err != nil || d != time.Minute {
		t.Errorf("default: %v %v", d, err)
	}
	if _, err := jobTimeout("banana", time.Minute); err == nil {
		t.Error("invalid duration accepted")
	}
	if _, err := jobTimeout("-3s", 0); err == nil {
		t.Error("negative duration accepted")
	}
}

// TestQueueFullRejectsWith429: with no workers draining, the bounded
// admission queue fills and the next POST is rejected, visible in metrics.
func TestQueueFullRejectsWith429(t *testing.T) {
	app := fixtureAppBytes(t)
	s := New(Config{Queue: 1, Logger: quietLogger()})
	// Deliberately not started: the queue cannot drain.
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	submit(t, ts, app, "") // fills the queue
	resp, err := http.Post(ts.URL+"/scan", "application/octet-stream", bytes.NewReader(app))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("POST with full queue = %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Error("429 carries no Retry-After")
	}
	_, metricsText := getBody(t, ts.URL+"/metrics")
	if !strings.Contains(metricsText, `nchecker_jobs_total{status="rejected"} 1`) {
		t.Errorf("/metrics missing rejection counter:\n%s", metricsText)
	}
	if !strings.Contains(metricsText, "nchecker_queue_depth 1") {
		t.Errorf("/metrics queue depth not 1")
	}
}

// TestBadSubmissions: an empty body is a 400; undecodable bytes are
// accepted but the job fails (the scan never 500s).
func TestBadSubmissions(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	resp, err := http.Post(ts.URL+"/scan", "application/octet-stream", bytes.NewReader(nil))
	if err != nil {
		t.Fatalf("POST empty: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty body = %d, want 400", resp.StatusCode)
	}

	job := await(t, ts, submit(t, ts, []byte("not an apk container"), ""))
	if job.Status != StatusFailed || job.Error == "" {
		t.Fatalf("garbage job = %+v, want failed with error", job)
	}
	_, metricsText := getBody(t, ts.URL+"/metrics")
	if !strings.Contains(metricsText, `nchecker_jobs_total{status="failed"} 1`) {
		t.Errorf("/metrics missing failed counter")
	}

	if code, _ := getBody(t, ts.URL+"/scan/job-999"); code != http.StatusNotFound {
		t.Errorf("unknown job = %d, want 404", code)
	}
}

// TestOversizedBodyRejected: MaxBodyBytes caps uploads with 413.
func TestOversizedBodyRejected(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxBodyBytes: 64})
	resp, err := http.Post(ts.URL+"/scan", "application/octet-stream",
		bytes.NewReader(bytes.Repeat([]byte("x"), 1024)))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body = %d, want 413", resp.StatusCode)
	}
}

// TestConcurrentJobsShareOneChecker: many concurrent jobs over one server
// complete with identical report text (run under -race in CI: this is the
// service's concurrency contract over the shared Checker, registry, and
// job store).
func TestConcurrentJobsShareOneChecker(t *testing.T) {
	app := fixtureAppBytes(t)
	_, ts := newTestServer(t, Config{Jobs: 4, Queue: 16})

	const n = 8
	ids := make([]string, n)
	for i := range ids {
		ids[i] = submit(t, ts, app, fmt.Sprintf("?name=app-%d.apk", i))
	}
	var text string
	for i, id := range ids {
		job := await(t, ts, id)
		if job.Status != StatusDone || job.Degraded {
			t.Fatalf("job %s = %+v", id, job)
		}
		if i == 0 {
			text = job.ReportText
		} else if job.ReportText != text {
			t.Errorf("job %s report text differs from job %s", id, ids[0])
		}
	}
	_, metricsText := getBody(t, ts.URL+"/metrics")
	if !strings.Contains(metricsText, fmt.Sprintf(`nchecker_jobs_total{status="done"} %d`, n)) {
		t.Errorf("/metrics done counter wrong:\n%s", metricsText)
	}
}

// TestJobsShareOnePersistentCache: with Options.CacheDir set, the second
// scan of the same bytes is answered from the store the first job wrote —
// all jobs share one cachestore.Shared instance.
func TestJobsShareOnePersistentCache(t *testing.T) {
	app := fixtureAppBytes(t)
	_, ts := newTestServer(t, Config{
		Scan: core.Options{CacheDir: t.TempDir(), CacheMode: core.CacheRW},
	})

	first := await(t, ts, submit(t, ts, app, ""))
	second := await(t, ts, submit(t, ts, app, ""))
	if first.ReportText != second.ReportText {
		t.Error("warm report text differs from cold")
	}
	_, metricsText := getBody(t, ts.URL+"/metrics")
	if !strings.Contains(metricsText, "nchecker_cache_store_hits_total 1") {
		t.Errorf("/metrics: expected one store hit after identical resubmission:\n%s",
			grepLines(metricsText, "nchecker_cache_store_"))
	}
	if !strings.Contains(metricsText, "nchecker_cache_store_puts_total") {
		t.Errorf("/metrics missing store put counter")
	}
}

// TestRetentionPrunesOldestFinished: finished jobs beyond Retain expire
// (410 Gone — known id, record pruned) while newer ones survive; /scans
// reflects the retained set.
func TestRetentionPrunesOldestFinished(t *testing.T) {
	app := fixtureAppBytes(t)
	_, ts := newTestServer(t, Config{Retain: 2})

	var ids []string
	for i := 0; i < 3; i++ {
		id := submit(t, ts, app, "")
		await(t, ts, id) // serialize so completion order is submission order
		ids = append(ids, id)
	}
	if code, _ := getBody(t, ts.URL+"/scan/"+ids[0]); code != http.StatusGone {
		t.Errorf("oldest finished job = %d, want 410 (pruned)", code)
	}
	for _, id := range ids[1:] {
		if code, _ := getBody(t, ts.URL+"/scan/"+id); code != http.StatusOK {
			t.Errorf("retained job %s = %d, want 200", id, code)
		}
	}
	_, listBody := getBody(t, ts.URL+"/scans")
	var rows []map[string]any
	if err := json.Unmarshal([]byte(listBody), &rows); err != nil {
		t.Fatalf("/scans not JSON: %v", err)
	}
	if len(rows) != 2 {
		t.Errorf("/scans lists %d jobs, want 2", len(rows))
	}
	if len(rows) == 2 && rows[0]["id"] != ids[2] {
		t.Errorf("/scans not newest-first: %v", rows)
	}
}

// TestPprofMounted: the pprof index answers on the service mux.
func TestPprofMounted(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	code, body := getBody(t, ts.URL+"/debug/pprof/")
	if code != http.StatusOK || !strings.Contains(body, "goroutine") {
		t.Errorf("/debug/pprof/ = %d", code)
	}
}

// grepLines filters s to lines containing sub, for focused failure output.
func grepLines(s, sub string) string {
	var out []string
	for _, line := range strings.Split(s, "\n") {
		if strings.Contains(line, sub) {
			out = append(out, line)
		}
	}
	return strings.Join(out, "\n")
}

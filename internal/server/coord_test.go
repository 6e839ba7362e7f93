package server

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cachestore"
	"repro/internal/core"
	"repro/internal/promtext"
	"repro/internal/report"
)

// newTestCoordinator builds a coordinator behind httptest with cleanup.
func newTestCoordinator(t *testing.T, cfg CoordConfig) (*Coordinator, *httptest.Server) {
	t.Helper()
	if cfg.Logger == nil {
		cfg.Logger = quietLogger()
	}
	c, err := NewCoordinator(cfg)
	if err != nil {
		t.Fatalf("NewCoordinator: %v", err)
	}
	ts := httptest.NewServer(c.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := c.Shutdown(ctx); err != nil {
			t.Errorf("coordinator Shutdown: %v", err)
		}
	})
	return c, ts
}

// newFleetWorkerServer builds a real worker Server behind httptest and
// registers it with the coordinator.
func newFleetWorkerServer(t *testing.T, c *Coordinator, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s, ts := newTestServer(t, cfg)
	if err := c.Register(ts.URL); err != nil {
		t.Fatalf("Register(%s): %v", ts.URL, err)
	}
	return s, ts
}

// fakeWorker simulates a worker over the /scansync wire protocol with an
// injectable scan delay — the fault-injection half of the fleet tests. A
// canceled request (a lost hedge) abandons the scan like a real worker.
func fakeWorker(t *testing.T, delay time.Duration, reportText string) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "ok\n")
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "# HELP nchecker_jobs_submitted_total Scan jobs accepted.\n# TYPE nchecker_jobs_submitted_total counter\nnchecker_jobs_submitted_total 0\n")
	})
	mux.HandleFunc("POST /scansync", func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-time.After(delay):
		case <-r.Context().Done():
			return
		}
		json.NewEncoder(w).Encode(&Job{
			ID: "sync-1", Status: StatusDone, Requests: 1, Warnings: 1, ReportText: reportText,
		})
	})
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return ts
}

// TestFleetScanMatchesSingleProcess: a fleet of three real workers
// produces byte-identical report text to a direct core scan — the
// differential contract the multi-process suite re-proves across OS
// process boundaries.
func TestFleetScanMatchesSingleProcess(t *testing.T) {
	app := fixtureAppBytes(t)
	c, ts := newTestCoordinator(t, CoordConfig{})
	for i := 0; i < 3; i++ {
		newFleetWorkerServer(t, c, Config{})
	}

	direct, err := core.New().ScanBytes(app)
	if err != nil {
		t.Fatalf("direct scan: %v", err)
	}
	wantText := report.RenderAll(direct.Reports)

	job := await(t, ts, submit(t, ts, app, "?name=demo.apk"))
	if job.Status != StatusDone || job.Degraded {
		t.Fatalf("fleet job = %+v, want clean done", job)
	}
	if job.ReportText != wantText {
		t.Errorf("fleet report text differs from direct scan:\n--- fleet ---\n%s\n--- direct ---\n%s", job.ReportText, wantText)
	}
	if job.Warnings != len(direct.Reports) || job.Requests != direct.Stats.Requests {
		t.Errorf("fleet counters (%d, %d) disagree with direct (%d, %d)",
			job.Warnings, job.Requests, len(direct.Reports), direct.Stats.Requests)
	}
	if job.Worker == "" || job.Attempts != 1 {
		t.Errorf("fleet telemetry: worker=%q attempts=%d, want a worker and 1 attempt", job.Worker, job.Attempts)
	}

	// An undecodable container fails deterministically without retries.
	bad := await(t, ts, submit(t, ts, []byte("not an apk"), ""))
	if bad.Status != StatusFailed || bad.Error == "" {
		t.Fatalf("garbage job = %+v, want failed", bad)
	}
	if bad.Attempts != 1 {
		t.Errorf("deterministic failure took %d attempts, want 1 (no retry)", bad.Attempts)
	}
}

// TestRendezvousShardingIsStableAndMinimallyDisruptive: the placement
// function spreads keys across workers, is deterministic, and removing
// one worker moves only the keys that worker owned.
func TestRendezvousShardingIsStableAndMinimallyDisruptive(t *testing.T) {
	workers := []*fleetWorker{{url: "http://a"}, {url: "http://b"}, {url: "http://c"}}
	const n = 300
	counts := map[string]int{}
	owner := make([]*fleetWorker, n)
	for i := 0; i < n; i++ {
		shard := sha256.Sum256([]byte(fmt.Sprintf("app-%d", i)))
		owner[i] = rendezvousOwner(shard, workers)
		counts[owner[i].url]++
		if again := rendezvousOwner(shard, workers); again != owner[i] {
			t.Fatalf("placement not deterministic for key %d", i)
		}
	}
	for _, w := range workers {
		if counts[w.url] < n/6 {
			t.Errorf("worker %s owns only %d/%d keys — placement badly skewed", w.url, counts[w.url], n)
		}
	}
	// Remove worker b: keys owned by a or c must not move.
	survivors := []*fleetWorker{workers[0], workers[2]}
	for i := 0; i < n; i++ {
		if owner[i] == workers[1] {
			continue
		}
		shard := sha256.Sum256([]byte(fmt.Sprintf("app-%d", i)))
		if rendezvousOwner(shard, survivors) != owner[i] {
			t.Fatalf("key %d moved although its owner survived", i)
		}
	}
}

// TestWorkerDeathRequeuesAndCompletes: killing a worker mid-fleet marks
// it down and its jobs finish on the survivor — the in-process twin of
// the kill-a-worker corpus run in the multi-process suite.
func TestWorkerDeathRequeuesAndCompletes(t *testing.T) {
	app := fixtureAppBytes(t)
	c, ts := newTestCoordinator(t, CoordConfig{})
	// The dead worker is the only one live at submission time, so every
	// job must be dispatched to it; its death orphans them all.
	dead := fakeWorker(t, 0, "fake\n")
	if err := c.Register(dead.URL); err != nil {
		t.Fatal(err)
	}
	dead.Close() // dies before it ever answers a dispatch

	ids := make([]string, 6)
	for i := range ids {
		ids[i] = submit(t, ts, app, fmt.Sprintf("?name=a%d", i))
	}
	_, survivors := newFleetWorkerServer(t, c, Config{})
	for i, id := range ids {
		job := await(t, ts, id)
		if job.Status != StatusDone || job.Degraded {
			t.Fatalf("job %d = %+v, want clean done via survivor", i, job)
		}
		if job.Worker != survivors.URL {
			t.Errorf("job %d finished on %q, want survivor %q", i, job.Worker, survivors.URL)
		}
	}

	code, fleetBody := getBody(t, ts.URL+"/fleet")
	if code != http.StatusOK {
		t.Fatalf("/fleet = %d", code)
	}
	var fleet struct {
		Workers []struct {
			URL  string `json:"url"`
			Down bool   `json:"down"`
		} `json:"workers"`
	}
	if err := json.Unmarshal([]byte(fleetBody), &fleet); err != nil {
		t.Fatalf("/fleet not JSON: %v", err)
	}
	downSeen := false
	for _, w := range fleet.Workers {
		if w.URL == dead.URL && w.Down {
			downSeen = true
		}
	}
	if !downSeen {
		t.Errorf("/fleet does not show the dead worker down: %s", fleetBody)
	}
	_, metricsText := getBody(t, ts.URL+"/metrics")
	if !strings.Contains(metricsText, "nchecker_fleet_workers_down_total 1") {
		t.Errorf("/metrics missing worker-down count:\n%s", grepLines(metricsText, "workers_down"))
	}
}

// TestDegradedResultRetriedAndKeptAsFallback: a fleet whose only worker
// always degrades retries up to the budget and then finalizes the
// degraded result — never failed, never lost. With a healthy second
// worker the retry lands there and the job finishes clean.
func TestDegradedResultRetriedAndKeptAsFallback(t *testing.T) {
	app := fixtureAppBytes(t)

	t.Run("single degrading worker keeps fallback", func(t *testing.T) {
		c, ts := newTestCoordinator(t, CoordConfig{Retries: 2})
		newFleetWorkerServer(t, c, Config{JobTimeout: time.Nanosecond})
		job := await(t, ts, submit(t, ts, app, ""))
		if job.Status != StatusDone || !job.Degraded {
			t.Fatalf("job = %+v, want done+degraded fallback", job)
		}
		if job.Attempts != 2 {
			t.Errorf("attempts = %d, want the full budget of 2", job.Attempts)
		}
		_, metricsText := getBody(t, ts.URL+"/metrics")
		if !strings.Contains(metricsText, "nchecker_fleet_degraded_retries_total 1") {
			t.Errorf("degraded retry not counted:\n%s", grepLines(metricsText, "degraded"))
		}
	})

	t.Run("healthy peer rescues the retry", func(t *testing.T) {
		c, ts := newTestCoordinator(t, CoordConfig{Retries: 3})
		newFleetWorkerServer(t, c, Config{JobTimeout: time.Nanosecond}) // always degrades
		newFleetWorkerServer(t, c, Config{})                            // healthy
		for i := 0; i < 4; i++ {
			job := await(t, ts, submit(t, ts, app, fmt.Sprintf("?name=a%d", i)))
			if job.Status != StatusDone || job.Degraded {
				t.Fatalf("job %d = %+v, want rescued clean by the healthy peer", i, job)
			}
		}
	})
}

// TestHedgingDuplicatesSlowDispatch: with every worker slow and a short
// hedge delay, a job is dispatched twice and the first terminal result
// wins; the job record says so.
func TestHedgingDuplicatesSlowDispatch(t *testing.T) {
	c, ts := newTestCoordinator(t, CoordConfig{Hedge: 30 * time.Millisecond})
	slow := fakeWorker(t, 400*time.Millisecond, "slow report\n")
	slower := fakeWorker(t, 450*time.Millisecond, "slow report\n")
	for _, w := range []*httptest.Server{slow, slower} {
		if err := c.Register(w.URL); err != nil {
			t.Fatal(err)
		}
	}
	job := await(t, ts, submit(t, ts, []byte("anything"), ""))
	if job.Status != StatusDone {
		t.Fatalf("job = %+v", job)
	}
	if !job.Hedged || job.Attempts != 2 {
		t.Errorf("hedged=%v attempts=%d, want a hedged second attempt", job.Hedged, job.Attempts)
	}
	_, metricsText := getBody(t, ts.URL+"/metrics")
	if !strings.Contains(metricsText, "nchecker_fleet_hedges_total 1") {
		t.Errorf("hedge not counted:\n%s", grepLines(metricsText, "hedges"))
	}
}

// TestQueueBoundAndOrphanDrain: with no worker registered, jobs park as
// orphans against the queue bound (429 beyond it) and drain the moment a
// worker joins.
func TestQueueBoundAndOrphanDrain(t *testing.T) {
	app := fixtureAppBytes(t)
	c, ts := newTestCoordinator(t, CoordConfig{Queue: 2})

	id1 := submit(t, ts, app, "?name=first")
	id2 := submit(t, ts, app, "?name=second")
	resp, err := http.Post(ts.URL+"/scan", "application/octet-stream", bytes.NewReader(app))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("third submit with full fleet queue = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 carries no Retry-After")
	}

	_, fleetBody := getBody(t, ts.URL+"/fleet")
	if !strings.Contains(fleetBody, `"orphans": 2`) {
		t.Errorf("/fleet should show two orphans:\n%s", fleetBody)
	}

	newFleetWorkerServer(t, c, Config{})
	for _, id := range []string{id1, id2} {
		if job := await(t, ts, id); job.Status != StatusDone {
			t.Errorf("orphaned job %s = %+v after worker joined", id, job)
		}
	}
}

// TestCacheReplicationServesFleetWideHits: worker A's scan pushes cache
// entries to the coordinator hub; worker B — fresh directory, never
// scanned anything — answers the same bytes from the hub as store hits.
func TestCacheReplicationServesFleetWideHits(t *testing.T) {
	app := fixtureAppBytes(t)
	c, ts := newTestCoordinator(t, CoordConfig{CacheDir: t.TempDir()})

	newWorkerWithReplication := func() (*Server, *httptest.Server) {
		dir := t.TempDir()
		s, wts := newTestServer(t, Config{Scan: core.Options{CacheDir: dir, CacheMode: core.CacheRW}})
		st, err := cachestore.Shared(dir, cachestore.Options{})
		if err != nil {
			t.Fatal(err)
		}
		st.SetReplicator(&httpReplicator{base: ts.URL + "/cache/"})
		if err := c.Register(wts.URL); err != nil {
			t.Fatal(err)
		}
		return s, wts
	}

	_, wtsA := newWorkerWithReplication()
	cold := await(t, wtsA, submit(t, wtsA, app, ""))
	if cold.Status != StatusDone || cold.Degraded {
		t.Fatalf("cold scan = %+v", cold)
	}
	_, metricsText := getBody(t, ts.URL+"/metrics")
	if !strings.Contains(metricsText, `nchecker_fleet_cache_puts_total{outcome="accepted"}`) ||
		strings.Contains(metricsText, `nchecker_fleet_cache_puts_total{outcome="accepted"} 0`) {
		t.Fatalf("worker A pushed nothing to the hub:\n%s", grepLines(metricsText, "cache"))
	}

	_, wtsB := newWorkerWithReplication()
	warm := await(t, wtsB, submit(t, wtsB, app, ""))
	if warm.ReportText != cold.ReportText {
		t.Error("hub-warmed report text differs from cold scan")
	}
	_, workerB := getBody(t, wtsB.URL+"/metrics")
	if !strings.Contains(workerB, "nchecker_cache_store_hits_total 1") {
		t.Errorf("worker B should hit the replicated whole-app entry:\n%s",
			grepLines(workerB, "nchecker_cache_store_"))
	}
	_, metricsText = getBody(t, ts.URL+"/metrics")
	if !strings.Contains(metricsText, `nchecker_fleet_cache_fetch_total{outcome="hit"}`) ||
		strings.Contains(metricsText, `nchecker_fleet_cache_fetch_total{outcome="hit"} 0`) {
		t.Errorf("hub served no fetch hits:\n%s", grepLines(metricsText, "cache_fetch"))
	}
}

// TestCacheHubEndpointsValidate: the hub surface rejects traversal names
// and corrupt envelopes, and answers 404 when no hub is configured.
func TestCacheHubEndpointsValidate(t *testing.T) {
	_, noHub := newTestCoordinator(t, CoordConfig{})
	if code, _ := getBody(t, noHub.URL+"/cache/"+cachestore.NewKey(cachestore.KindResult, []byte("x")).Filename()); code != http.StatusNotFound {
		t.Errorf("hub-less GET = %d, want 404", code)
	}

	_, ts := newTestCoordinator(t, CoordConfig{CacheDir: t.TempDir()})
	name := cachestore.NewKey(cachestore.KindResult, []byte("x")).Filename()
	good := cachestore.EncodeEntry(cachestore.KindResult, []byte("payload"))

	put := func(entry string, data []byte) int {
		req, err := http.NewRequest(http.MethodPut, ts.URL+"/cache/"+entry, bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := put("r-deadbeef.nce", good); code != http.StatusBadRequest {
		t.Errorf("bad name PUT = %d, want 400", code)
	}
	if code := put(name, good[:5]); code != http.StatusBadRequest {
		t.Errorf("truncated envelope PUT = %d, want 400", code)
	}
	if code := put(name, good); code != http.StatusNoContent {
		t.Errorf("good PUT = %d, want 204", code)
	}
	if code, body := getBody(t, ts.URL+"/cache/"+name); code != http.StatusOK || !strings.Contains(body, "payload") {
		t.Errorf("GET after PUT = %d", code)
	}
	if code, _ := getBody(t, ts.URL+"/cache/"+cachestore.NewKey(cachestore.KindResult, []byte("missing")).Filename()); code != http.StatusNotFound {
		t.Errorf("missing entry GET = %d, want 404", code)
	}
}

// TestCoordinatorMetricsAggregation: GET /metrics on the coordinator
// parses as valid Prometheus text and contains both the fleet counters
// and worker series summed across the fleet.
func TestCoordinatorMetricsAggregation(t *testing.T) {
	app := fixtureAppBytes(t)
	c, ts := newTestCoordinator(t, CoordConfig{})
	newFleetWorkerServer(t, c, Config{})
	newFleetWorkerServer(t, c, Config{})

	const n = 4
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			await(t, ts, submit(t, ts, app, fmt.Sprintf("?name=a%d", i)))
		}(i)
	}
	wg.Wait()

	_, metricsText := getBody(t, ts.URL+"/metrics")
	parsed, err := promtext.Parse(metricsText)
	if err != nil {
		t.Fatalf("coordinator /metrics is not valid Prometheus text: %v", err)
	}
	bySeries := map[string]float64{}
	for _, s := range parsed.Samples {
		bySeries[s.Series()] = s.Value
	}
	if bySeries["nchecker_fleet_jobs_submitted_total"] != n {
		t.Errorf("fleet submitted = %v, want %d", bySeries["nchecker_fleet_jobs_submitted_total"], n)
	}
	if bySeries[`nchecker_fleet_jobs_total{status="done"}`] != n {
		t.Errorf("fleet done = %v, want %d", bySeries[`nchecker_fleet_jobs_total{status="done"}`], n)
	}
	if bySeries["nchecker_fleet_workers_live"] != 2 {
		t.Errorf("live workers = %v, want 2", bySeries["nchecker_fleet_workers_live"])
	}
	// The aggregated worker series must sum to the fleet totals: every job
	// ran on exactly one worker.
	if got := bySeries[`nchecker_jobs_total{status="done"}`]; got != n {
		t.Errorf("summed worker done jobs = %v, want %d", got, n)
	}
	if got := bySeries["nchecker_scan_seconds_count"]; got != n {
		t.Errorf("summed scan histogram count = %v, want %d", got, n)
	}
}

// TestCoordinatorBadSubmissions: validation failures are rejected at the
// front door with the same codes a single worker uses.
func TestCoordinatorBadSubmissions(t *testing.T) {
	c, ts := newTestCoordinator(t, CoordConfig{MaxBodyBytes: 64})
	newFleetWorkerServer(t, c, Config{})

	post := func(query string, body []byte) int {
		resp, err := http.Post(ts.URL+"/scan"+query, "application/octet-stream", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := post("", nil); code != http.StatusBadRequest {
		t.Errorf("empty body = %d, want 400", code)
	}
	if code := post("?timeout=banana", []byte("x")); code != http.StatusBadRequest {
		t.Errorf("bad timeout = %d, want 400", code)
	}
	if code := post("?checkers=99-1", []byte("x")); code != http.StatusBadRequest {
		t.Errorf("bad checkers = %d, want 400", code)
	}
	if code := post("", bytes.Repeat([]byte("x"), 1024)); code != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized = %d, want 413", code)
	}
	if code, _ := getBody(t, ts.URL+"/scan/job-999"); code != http.StatusNotFound {
		t.Errorf("unknown job = %d, want 404", code)
	}
}

// TestCoordinatorRetention: finished fleet jobs expire beyond Retain with
// 410, like a single worker.
func TestCoordinatorRetention(t *testing.T) {
	app := fixtureAppBytes(t)
	c, ts := newTestCoordinator(t, CoordConfig{Retain: 2})
	newFleetWorkerServer(t, c, Config{})

	var ids []string
	for i := 0; i < 3; i++ {
		id := submit(t, ts, app, "")
		await(t, ts, id)
		ids = append(ids, id)
	}
	if code, _ := getBody(t, ts.URL+"/scan/"+ids[0]); code != http.StatusGone {
		t.Errorf("oldest fleet job = %d, want 410", code)
	}
	for _, id := range ids[1:] {
		if code, _ := getBody(t, ts.URL+"/scan/"+id); code != http.StatusOK {
			t.Errorf("retained fleet job %s = %d, want 200", id, code)
		}
	}
}

// TestWorkStealingDrainsImbalancedQueues: jobs all sharded to one slow
// fake worker get stolen by an idle peer instead of waiting in line.
func TestWorkStealingDrainsImbalancedQueues(t *testing.T) {
	c, ts := newTestCoordinator(t, CoordConfig{})
	// One worker that is slow enough to pile its queue up, one fast thief.
	slow := fakeWorker(t, 300*time.Millisecond, "r\n")
	fast := fakeWorker(t, 5*time.Millisecond, "r\n")
	if err := c.Register(slow.URL); err != nil {
		t.Fatal(err)
	}

	// Submit several identical bodies: same shard key → all queue on the
	// same worker while it is the only one live.
	var ids []string
	for i := 0; i < 6; i++ {
		ids = append(ids, submit(t, ts, []byte("same body"), ""))
	}
	if err := c.Register(fast.URL); err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		if job := await(t, ts, id); job.Status != StatusDone {
			t.Fatalf("job %s = %+v", id, job)
		}
	}
	_, metricsText := getBody(t, ts.URL+"/metrics")
	if strings.Contains(metricsText, "nchecker_fleet_steals_total 0\n") {
		t.Errorf("no dispatches stolen:\n%s", grepLines(metricsText, "steals"))
	}
}

package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/apk"
	"repro/internal/corpus"
	"repro/internal/promtext"
)

// scanSync POSTs app bytes to /scansync under ctx and decodes the job
// record it answers.
func scanSync(ctx context.Context, ts *httptest.Server, body []byte) (Job, error) {
	var job Job
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/scansync", bytes.NewReader(body))
	if err != nil {
		return job, err
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		return job, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return job, err
	}
	if resp.StatusCode != http.StatusOK {
		return job, fmt.Errorf("POST /scansync = %d: %s", resp.StatusCode, b)
	}
	return job, json.Unmarshal(b, &job)
}

// paddedFixtureBytes is the fixture app with n inert padding classes: the
// same reports, a longer scan.
func paddedFixtureBytes(t *testing.T, n int) []byte {
	t.Helper()
	app, err := apk.Decode(fixtureAppBytes(t))
	if err != nil {
		t.Fatal(err)
	}
	corpus.AddPadding(app, n)
	data, err := apk.Encode(app)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// inflight reads the server's in-flight scan gauge.
func inflight(s *Server) int64 {
	s.metrics.mu.Lock()
	defer s.metrics.mu.Unlock()
	return s.metrics.inflight
}

// TestScansNeverOverlapAtOneJob: -jobs bounds every scan of the process,
// whichever endpoint submitted it. With Jobs: 1, six POST /scan and six
// POST /scansync submissions of a padded app run one at a time, so the
// in-flight gauge never reads above 1, and both endpoints answer the same
// report text.
func TestScansNeverOverlapAtOneJob(t *testing.T) {
	app := paddedFixtureBytes(t, 3000)
	s, ts := newTestServer(t, Config{Jobs: 1, Queue: 16})

	var peak atomic.Int64
	stop := make(chan struct{})
	polled := make(chan struct{})
	go func() {
		defer close(polled)
		for {
			if v := inflight(s); v > peak.Load() {
				peak.Store(v)
			}
			select {
			case <-stop:
				return
			default:
				time.Sleep(50 * time.Microsecond)
			}
		}
	}()

	const n = 6
	texts := make([]string, 2*n)
	ids := make([]string, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			job, err := scanSync(context.Background(), ts, app)
			if err != nil || job.Status != StatusDone || job.Degraded {
				t.Errorf("sync scan %d = %+v, %v; want clean done", i, job, err)
				return
			}
			texts[i] = job.ReportText
		}(i)
		ids[i] = submit(t, ts, app, "")
	}
	for i, id := range ids {
		texts[n+i] = await(t, ts, id).ReportText
	}
	wg.Wait()
	close(stop)
	<-polled

	if p := peak.Load(); p > 1 {
		t.Errorf("in-flight scans peaked at %d with Jobs: 1, want at most 1", p)
	}
	for i, text := range texts {
		if text == "" || text != texts[0] {
			t.Errorf("scan %d report text differs from scan 0 (or is empty)", i)
		}
	}
	_, metricsText := getBody(t, ts.URL+"/metrics")
	for _, want := range []string{
		fmt.Sprintf("nchecker_jobs_submitted_total %d", 2*n),
		fmt.Sprintf("nchecker_scan_seconds_count %d", 2*n),
	} {
		if !strings.Contains(metricsText, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestScanSyncCancellation: a POST /scansync whose client gives up costs
// no scan while its job is queued, and ends a running scan degraded
// without holding the -jobs slot.
func TestScanSyncCancellation(t *testing.T) {
	app := fixtureAppBytes(t)

	t.Run("canceled while queued leads to no scan", func(t *testing.T) {
		s := New(Config{Jobs: 1, Logger: quietLogger()})
		var scans atomic.Int64
		s.scanHook = func(context.Context) { scans.Add(1) }
		handlerDone := make(chan struct{})
		h := s.Handler()
		ts := serveTest(t, s, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			h.ServeHTTP(w, r)
			if r.URL.Path == "/scansync" {
				close(handlerDone)
			}
		}))

		// Not started yet: the sync job waits in the queue.
		ctx, cancel := context.WithCancel(context.Background())
		clientDone := make(chan error, 1)
		go func() {
			_, err := scanSync(ctx, ts, app)
			clientDone <- err
		}()
		for len(s.queue) == 0 {
			select {
			case err := <-clientDone:
				t.Fatalf("/scansync returned before its job was queued: %v", err)
			case <-time.After(time.Millisecond):
			}
		}
		cancel()
		if err := <-clientDone; err == nil {
			t.Fatal("canceled /scansync answered a record")
		}
		<-handlerDone

		s.Start()
		job := await(t, ts, submit(t, ts, app, ""))
		if job.Status != StatusDone || job.Degraded {
			t.Fatalf("job behind the canceled one = %+v, want clean done", job)
		}
		if n := scans.Load(); n != 1 {
			t.Errorf("%d scans ran, want 1: the canceled sync job must be dropped unscanned", n)
		}
		_, metricsText := getBody(t, ts.URL+"/metrics")
		for _, want := range []string{
			"nchecker_jobs_submitted_total 2",
			`nchecker_jobs_total{status="canceled"} 1`,
			"nchecker_scan_seconds_count 1",
			"nchecker_queue_depth 0",
		} {
			if !strings.Contains(metricsText, want) {
				t.Errorf("/metrics missing %q", want)
			}
		}
		checkJobsAccounted(t, metricsText)
	})

	t.Run("canceled mid-scan ends degraded and frees the slot", func(t *testing.T) {
		s := New(Config{Jobs: 1, Logger: quietLogger()})
		var held atomic.Bool
		started := make(chan struct{})
		// Hold the first scan in flight until its context ends.
		s.scanHook = func(ctx context.Context) {
			if held.CompareAndSwap(false, true) {
				close(started)
				<-ctx.Done()
			}
		}
		s.Start()
		ts := serveTest(t, s, s.Handler())

		ctx, cancel := context.WithCancel(context.Background())
		clientDone := make(chan error, 1)
		go func() {
			_, err := scanSync(ctx, ts, app)
			clientDone <- err
		}()
		select {
		case <-started:
		case err := <-clientDone:
			t.Fatalf("/scansync returned before its scan started: %v", err)
		}
		cancel()
		if err := <-clientDone; err == nil {
			t.Fatal("canceled /scansync answered a record")
		}

		// The only slot must come free for the next job.
		job := await(t, ts, submit(t, ts, app, ""))
		if job.Status != StatusDone || job.Degraded {
			t.Fatalf("job after the canceled scan = %+v, want clean done", job)
		}
		_, metricsText := getBody(t, ts.URL+"/metrics")
		for _, want := range []string{
			"nchecker_degraded_scans_total 1",
			`nchecker_jobs_total{status="degraded"} 1`,
			`nchecker_jobs_total{status="done"} 1`,
			"nchecker_jobs_inflight 0",
		} {
			if !strings.Contains(metricsText, want) {
				t.Errorf("/metrics missing %q:\n%s", want, grepLines(metricsText, "nchecker_jobs"))
			}
		}
		checkJobsAccounted(t, metricsText)
	})
}

// checkJobsAccounted: every submitted job ends under exactly one terminal
// status of nchecker_jobs_total; a rejected job was never submitted.
func checkJobsAccounted(t *testing.T, metricsText string) {
	t.Helper()
	parsed, err := promtext.Parse(metricsText)
	if err != nil {
		t.Fatal(err)
	}
	var submitted, terminal float64
	for _, s := range parsed.Samples {
		switch {
		case s.Name == "nchecker_jobs_submitted_total":
			submitted = s.Value
		case s.Name == "nchecker_jobs_total" && s.Labels != `{status="rejected"}`:
			terminal += s.Value
		}
	}
	if submitted != terminal {
		t.Errorf("%v jobs submitted, %v ended under a terminal status:\n%s", submitted, terminal, grepLines(metricsText, "nchecker_jobs"))
	}
}

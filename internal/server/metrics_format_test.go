package server

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/promtext"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata goldens")

// TestMetricsFormatStability is the /metrics format contract: after a
// run that exercises every job path (done, degraded, failed, targeted,
// validated, rejected, cache hit), the endpoint must parse as well-formed
// Prometheus text 0.0.4 and expose exactly the series identities recorded
// in testdata/metrics_series.golden. Fleet aggregation (promtext.Sum on
// the coordinator) and operator dashboards key on these identities — a
// renamed or dropped series is a breaking change that must show up in
// review as a golden diff, not as a silent dashboard gap.
//
// Values are deliberately not asserted here (timings vary); the golden
// pins names, labels, and the sorted order the parser reports them in.
// Regenerate with: go test ./internal/server -run TestMetricsFormatStability -update
func TestMetricsFormatStability(t *testing.T) {
	app := fixtureAppBytes(t)
	_, ts := newTestServer(t, Config{
		Queue: 1,
		Scan:  core.Options{CacheDir: t.TempDir(), CacheMode: core.CacheRW},
	})

	// One clean job, one cache-hitting resubmission, one validated job,
	// one failed job: between them they touch every counter family the
	// server exports.
	await(t, ts, submit(t, ts, app, ""))
	await(t, ts, submit(t, ts, app, ""))
	await(t, ts, submit(t, ts, app, "?validate=1"))
	await(t, ts, submit(t, ts, []byte("not an apk"), ""))

	// A deliberately degraded job (deadline far below any real scan).
	await(t, ts, submit(t, ts, app, "?timeout=1ns"))

	_, metricsText := getBody(t, ts.URL+"/metrics")
	parsed, err := promtext.Parse(metricsText)
	if err != nil {
		t.Fatalf("/metrics does not parse as Prometheus text 0.0.4: %v", err)
	}
	got := strings.Join(parsed.SeriesNames(), "\n") + "\n"

	goldenPath := filepath.Join("testdata", "metrics_series.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update): %v", err)
	}
	if got != string(want) {
		t.Errorf("/metrics series set drifted from testdata/metrics_series.golden.\n"+
			"If the change is intentional, regenerate with -update and call it out in review.\n%s",
			diffLines(string(want), got))
	}

	// The histogram bucket ordering must be numeric (promtext renders and
	// the server must emit le="0.005" before le="+Inf").
	if i5, iInf := strings.Index(metricsText, `le="0.005"`), strings.Index(metricsText, `le="+Inf"`); i5 < 0 || iInf < 0 || i5 > iInf {
		t.Error("scan histogram buckets not in numeric order")
	}
}

// diffLines renders a compact two-column set difference for golden
// mismatches: lines only in want, lines only in got.
func diffLines(want, got string) string {
	wantSet := map[string]bool{}
	for _, l := range strings.Split(strings.TrimRight(want, "\n"), "\n") {
		wantSet[l] = true
	}
	gotSet := map[string]bool{}
	for _, l := range strings.Split(strings.TrimRight(got, "\n"), "\n") {
		gotSet[l] = true
	}
	var b strings.Builder
	for l := range wantSet {
		if !gotSet[l] {
			b.WriteString("- " + l + "\n")
		}
	}
	for l := range gotSet {
		if !wantSet[l] {
			b.WriteString("+ " + l + "\n")
		}
	}
	if b.Len() == 0 {
		return "(same series set, different order)\n--- want ---\n" + want + "--- got ---\n" + got
	}
	return b.String()
}

// TestMetricsParseableEveryRequest guards the wire format under
// concurrent load: /metrics scraped while jobs run must always be
// well-formed (the coordinator scrapes workers mid-run).
func TestMetricsParseableEveryRequest(t *testing.T) {
	app := fixtureAppBytes(t)
	_, ts := newTestServer(t, Config{Jobs: 2, Queue: 8})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 4; i++ {
			await(t, ts, submit(t, ts, app, ""))
		}
	}()
	for {
		select {
		case <-done:
			return
		default:
		}
		_, metricsText := getBody(t, ts.URL+"/metrics")
		if _, err := promtext.Parse(metricsText); err != nil {
			t.Fatalf("mid-run /metrics unparseable: %v", err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// Command servesmoke is the CI smoke client for `nchecker serve`
// (scripts/check.sh drives it; no curl required in the container). It
// waits for the server's -ready-file, then exercises the service end to
// end: /healthz must answer 200, a POSTed fixture app must scan to a
// finished job with warnings and report text, the same app POSTed to
// /scansync must answer byte-identical report text, and /metrics must
// expose the scan counters of both jobs. Exit 0 on success, 1 with a
// message on any failure.
//
// The fixture app, ready-file handshake, and HTTP client live in
// internal/testutil, shared with the server and fleet test suites.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"time"

	"repro/internal/testutil"
)

func main() {
	readyFile := flag.String("ready-file", "", "file the server writes its bound address to")
	timeout := flag.Duration("timeout", 60*time.Second, "overall deadline")
	flag.Parse()
	if *readyFile == "" {
		fail("usage: servesmoke -ready-file PATH")
	}
	deadline := time.Now().Add(*timeout)

	addr, err := testutil.WaitAddrFile(*readyFile, deadline)
	if err != nil {
		fail("%v", err)
	}
	client := &testutil.ScanClient{Base: "http://" + addr}
	fmt.Printf("servesmoke: server at %s\n", client.Base)

	// Liveness first.
	if code, err := client.Healthz(); err != nil || code != http.StatusOK {
		fail("GET /healthz = %d (%v), want 200", code, err)
	}

	// Submit the fixture app (a buggy request with no connectivity check,
	// no timeout, no error handling — it must produce warnings).
	app, err := testutil.FixtureApp()
	if err != nil {
		fail("build fixture app: %v", err)
	}
	job := scanJob(client, "?name=smoke.apk", app, deadline)
	switch {
	case job.Warnings == 0:
		fail("job %s found no warnings in the buggy fixture", job.ID)
	case !strings.Contains(job.ReportText, "NPD Information"):
		fail("job %s report text missing the Figure 7 layout:\n%s", job.ID, job.ReportText)
	case strings.Contains(job.ReportText, "Dynamic validation"):
		fail("job %s report text carries a verdict without ?validate:\n%s", job.ID, job.ReportText)
	}
	fmt.Printf("servesmoke: job done, %d warnings\n", job.Warnings)

	// The fleet's dispatch endpoint goes through the same queue and must
	// answer the same bytes.
	sjob := scanSync(client, "?name=smoke-sync.apk", app)
	switch {
	case sjob.Status != "done" || sjob.Degraded:
		fail("sync job %s finished %q (degraded=%v, %s), want clean done", sjob.ID, sjob.Status, sjob.Degraded, sjob.Error)
	case sjob.ReportText != job.ReportText:
		fail("/scansync report text differs from job %s's:\n--- scansync ---\n%s\n--- scan ---\n%s", job.ID, sjob.ReportText, job.ReportText)
	}
	fmt.Printf("servesmoke: sync job %s done, report text identical\n", sjob.ID)

	// Both scans must be visible on /metrics.
	metrics := getMetrics(client)
	for _, want := range []string{
		"nchecker_jobs_submitted_total 2",
		`nchecker_jobs_total{status="done"} 2`,
		"nchecker_scan_seconds_count 2",
		`nchecker_stage_seconds_total{stage="build"}`,
		"nchecker_queue_depth 0",
		"nchecker_degraded_scans_total 0",
	} {
		if !strings.Contains(metrics, want) {
			fail("/metrics missing %q:\n%s", want, metrics)
		}
	}

	// A validated job: the ?validate=1 override replays every warning's
	// witness under injected disruptions, the fixture's defects must be
	// dynamically confirmed, and the validate counters reach /metrics.
	vjob := scanJob(client, "?name=smoke-validate.apk&validate=1", app, deadline)
	switch {
	case vjob.Warnings != job.Warnings:
		fail("validated job found %d warnings, unvalidated found %d", vjob.Warnings, job.Warnings)
	case !strings.Contains(vjob.ReportText, "Dynamic validation\n  confirmed"):
		fail("validated job %s has no confirmed verdict:\n%s", vjob.ID, vjob.ReportText)
	}
	fmt.Printf("servesmoke: validated job done, %d warnings\n", vjob.Warnings)
	metrics = getMetrics(client)
	for _, want := range []string{
		"nchecker_validate_confirmed_total",
		"nchecker_validate_replays_total",
	} {
		if !strings.Contains(metrics, want) {
			fail("/metrics missing %q:\n%s", want, metrics)
		}
	}
	if strings.Contains(metrics, "nchecker_validate_confirmed_total 0") {
		fail("validate confirmed counter stayed 0 after a confirmed job:\n%s", metrics)
	}
	fmt.Println("servesmoke: ok")
}

// scanJob submits one app and polls it to a clean `done`; any failure,
// degradation, or deadline overrun fails the smoke.
func scanJob(client *testutil.ScanClient, query string, app []byte, deadline time.Time) testutil.JobView {
	job, err := client.Submit(query, app)
	if err != nil {
		fail("%v", err)
	}
	fmt.Printf("servesmoke: submitted %s\n", job.ID)
	job, err = client.Await(job.ID, deadline)
	switch {
	case err != nil:
		fail("%v", err)
	case job.Status != "done":
		fail("job %s finished %q (%s), want done", job.ID, job.Status, job.Error)
	case job.Degraded:
		fail("job %s degraded: %s", job.ID, job.Error)
	}
	return job
}

// scanSync POSTs one app to /scansync and decodes the finished record it
// answers.
func scanSync(client *testutil.ScanClient, query string, app []byte) testutil.JobView {
	resp, err := http.Post(client.Base+"/scansync"+query, "application/octet-stream", bytes.NewReader(app))
	if err != nil {
		fail("POST /scansync%s: %v", query, err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		fail("POST /scansync%s = %d (%v): %s", query, resp.StatusCode, err, body)
	}
	var job testutil.JobView
	if err := json.Unmarshal(body, &job); err != nil {
		fail("POST /scansync%s response: %v: %s", query, err, body)
	}
	return job
}

// getMetrics fetches /metrics and returns the Prometheus text body.
func getMetrics(client *testutil.ScanClient) string {
	metrics, err := client.Metrics()
	if err != nil {
		fail("%v", err)
	}
	return metrics
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "servesmoke: "+format+"\n", args...)
	os.Exit(1)
}

package server

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro/internal/checkers"
)

// populatedDiagnostics returns a scan Diagnostics with every counter field
// of Cache, Targeted and Validate set to a distinct value (by reflection,
// in declaration order), fixed stage timings covering every checker
// family, and one ScanError.
func populatedDiagnostics() checkers.Diagnostics {
	d := checkers.Diagnostics{
		Total:      1500 * time.Millisecond,
		AppMethods: 7,
		Sites:      3,
		Errors:     []checkers.ScanError{{Kind: checkers.ErrDeadline, Stage: "discover", Unit: -1}},
	}
	n := int64(1)
	for _, s := range []interface{}{&d.Cache, &d.Targeted, &d.Validate} {
		v := reflect.ValueOf(s).Elem()
		for i := 0; i < v.NumField(); i++ {
			v.Field(i).SetInt(100 + n)
			n++
		}
	}
	stage := func(name string, dur time.Duration, items, reports int) {
		d.Stages = append(d.Stages, checkers.StageTiming{Name: name, Duration: dur, Items: items, Reports: reports})
	}
	stage("build", 2*time.Millisecond, 40, 0)
	stage("discover", 3*time.Millisecond, 12, 0)
	for f := 1; f <= checkers.NumCheckerFamilies; f++ {
		stage(checkers.StageOfFamily(f), time.Duration(f)*time.Millisecond, 10*f, f)
	}
	stage("validate", 5*time.Millisecond, 36, 0)
	return d
}

// checkGolden compares got against testdata/name, rewriting it under -update.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update): %v", err)
	}
	if got != string(want) {
		t.Errorf("output drifted from %s:\n%s", path, diffLines(string(want), got))
	}
}

// TestMetricsRenderGolden pins the full /metrics text — HELP/TYPE lines,
// series order and values — after folding two fully populated scans, one
// of them degraded, plus one submission that failed, one dropped before
// its scan, and one rejection.
func TestMetricsRenderGolden(t *testing.T) {
	m := newMetrics()
	for _, degraded := range []bool{false, true} {
		m.jobSubmitted()
		m.scanStarted()
		d := populatedDiagnostics()
		m.jobDone(&d, degraded)
	}
	m.jobSubmitted()
	m.scanStarted()
	m.jobFailed()
	m.jobSubmitted()
	m.jobCanceled()
	m.jobRejected()
	checkGolden(t, "metrics_render.golden", m.render(3, 16))
}

// TestCoordMetricsRenderGolden pins the coordinator's own /metrics text
// (no worker scrapes): every fleet counter with a distinct count, then the
// gauges.
func TestCoordMetricsRenderGolden(t *testing.T) {
	m := newCoordMetrics()
	counts := map[fleetCounter]int{
		fleetJobsSubmitted: 1, fleetJobsRejected: 2, fleetJobsFailed: 3,
		fleetRetries: 4, fleetHedges: 5, fleetSteals: 6, fleetDegradedRetries: 7,
		fleetWorkersJoined: 8, fleetWorkersDown: 9,
		fleetCacheFetchHits: 10, fleetCacheFetchMisses: 11,
		fleetCachePuts: 12, fleetCachePutRejects: 13, fleetScrapeErrors: 14,
		// 15 clean and 16 degraded jobs.
		fleetJobsDone: 31, fleetJobsDegraded: 16,
	}
	if len(counts) != int(numFleetCounters) {
		t.Fatalf("test covers %d of %d fleet counters", len(counts), numFleetCounters)
	}
	for c, n := range counts {
		for i := 0; i < n; i++ {
			m.inc(c)
		}
	}
	checkGolden(t, "coord_metrics_render.golden", m.render(17, 18, 19, nil))
}

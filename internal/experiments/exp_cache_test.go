package experiments

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro/internal/checkers"
	"repro/internal/core"
	"repro/internal/corpus"
)

// This file is the persistent scan cache's correctness spine: a
// differential harness proving that the cache is invisible in every
// observable output. The golden corpus is rendered to report text under
// a matrix of cache modes, cache temperatures, and worker counts, and
// every cell must be byte-identical to the cache-off baseline —
// including after a crashed writer truncated entries mid-commit and
// after an interrupted (deadline-killed) prior run.

// testCacheDir returns a per-test cache directory. When
// NCHECKER_TEST_CACHEDIR is set (scripts/check.sh's cache-enabled pass),
// tests share that root — each test gets a subdirectory keyed by its
// name so runs exercise the on-disk store across processes; otherwise
// each test gets a throwaway t.TempDir.
func testCacheDir(t *testing.T) string {
	t.Helper()
	root := os.Getenv("NCHECKER_TEST_CACHEDIR")
	if root == "" {
		return t.TempDir()
	}
	dir := filepath.Join(root, t.Name())
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatalf("mkdir %s: %v", dir, err)
	}
	return dir
}

// TestCacheDifferentialGoldenCorpus: the matrix. Baseline is the
// whole-program oracle, cache off, single worker; every mode ×
// temperature × worker-count cell must render byte-identical report text.
func TestCacheDifferentialGoldenCorpus(t *testing.T) {
	baseline := goldenReportTextWith(t, checkers.OracleOptions(core.Options{Workers: 1}))
	dir := testCacheDir(t)

	cells := []struct {
		name string
		opts core.Options
	}{
		// Cold rw fills the cache; warm rw reads it back; ro reads without
		// writing; off ignores it. Worker counts cross-cut every mode.
		{"rw-cold-w1", core.Options{Workers: 1, CacheDir: dir, CacheMode: core.CacheRW}},
		{"rw-warm-w1", core.Options{Workers: 1, CacheDir: dir, CacheMode: core.CacheRW}},
		{"rw-warm-w4", core.Options{Workers: 4, CacheDir: dir, CacheMode: core.CacheRW}},
		{"ro-w1", core.Options{Workers: 1, CacheDir: dir, CacheMode: core.CacheRO}},
		{"ro-w4", core.Options{Workers: 4, CacheDir: dir, CacheMode: core.CacheRO}},
		{"off-w1", core.Options{Workers: 1}},
		{"off-w4", core.Options{Workers: 4}},
	}
	for _, cell := range cells {
		got := goldenReportTextWith(t, cell.opts)
		if got != baseline {
			t.Errorf("%s: report text differs from the oracle baseline:\n%s",
				cell.name, firstDiff(baseline, got))
		}
	}
}

// TestCacheDifferentialFullCorpus: cold vs. warm over the whole 285-app
// corpus — per-app reports and stats must match exactly, and the warm
// pass must actually be answered from cache.
func TestCacheDifferentialFullCorpus(t *testing.T) {
	dir := testCacheDir(t)
	cold, err := ScanCorpusWith(Seed, core.Options{CacheDir: dir, CacheMode: core.CacheRW})
	if err != nil {
		t.Fatalf("cold corpus scan: %v", err)
	}
	if n := cold.IncompleteApps(); n > 0 {
		t.Fatalf("cold corpus scan degraded %d apps: %v", n, cold.FailedAppNames())
	}
	warm, err := ScanCorpusWith(Seed, core.Options{CacheDir: dir, CacheMode: core.CacheRW})
	if err != nil {
		t.Fatalf("warm corpus scan: %v", err)
	}
	if len(warm.Apps) != len(cold.Apps) {
		t.Fatalf("app counts differ: cold %d, warm %d", len(cold.Apps), len(warm.Apps))
	}
	hits := 0
	for i := range cold.Apps {
		c, w := &cold.Apps[i], &warm.Apps[i]
		if c.Name != w.Name {
			t.Fatalf("app %d: name %q vs %q", i, c.Name, w.Name)
		}
		if !reflect.DeepEqual(c.Reports, w.Reports) {
			t.Errorf("app %s: warm reports differ from cold", c.Name)
		}
		if !reflect.DeepEqual(c.Stats, w.Stats) {
			t.Errorf("app %s: warm stats differ from cold", c.Name)
		}
		hits += w.Diag.Cache.StoreHits
	}
	if hits < len(cold.Apps) {
		t.Errorf("warm pass hit only %d of %d apps", hits, len(cold.Apps))
	}
}

// TestCacheSurvivesCrashedWriter: truncate every cached entry (a writer
// killed mid-commit) — the rescan must detect the damage, fall back cold
// with identical output, and heal the cache in rw mode.
func TestCacheSurvivesCrashedWriter(t *testing.T) {
	baseline := goldenReportTextWith(t, core.Options{Workers: 1})
	dir := t.TempDir() // isolation-sensitive: must not share a populated dir
	opts := core.Options{Workers: 1, CacheDir: dir, CacheMode: core.CacheRW}

	if got := goldenReportTextWith(t, opts); got != baseline {
		t.Fatalf("cold fill differs from baseline:\n%s", firstDiff(baseline, got))
	}
	entries, err := os.ReadDir(dir)
	if err != nil || len(entries) == 0 {
		t.Fatalf("cold fill cached nothing (err=%v)", err)
	}
	for _, e := range entries {
		p := filepath.Join(dir, e.Name())
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatalf("read %s: %v", p, err)
		}
		if err := os.WriteFile(p, data[:len(data)/3], 0o644); err != nil {
			t.Fatalf("truncate %s: %v", p, err)
		}
	}
	if got := goldenReportTextWith(t, opts); got != baseline {
		t.Errorf("rescan over truncated cache differs from baseline:\n%s", firstDiff(baseline, got))
	}
	// Healed: the next pass is served from (rewritten) entries and still
	// matches.
	if got := goldenReportTextWith(t, opts); got != baseline {
		t.Errorf("healed rescan differs from baseline:\n%s", firstDiff(baseline, got))
	}
}

// TestInterruptedRunNeverPoisons: a prior run killed by its deadline must
// leave the cache empty — a degraded scan's partial results cached as
// truth would corrupt every later rescan.
func TestInterruptedRunNeverPoisons(t *testing.T) {
	baseline := goldenReportTextWith(t, core.Options{Workers: 1})
	dir := t.TempDir() // isolation-sensitive: starts empty

	// The deadline pre-expires before any stage runs: every scan is
	// degraded, so nothing may be committed.
	interrupted := ScanApps(mustGoldens(t), core.Options{
		CacheDir: dir, CacheMode: core.CacheRW, Timeout: time.Nanosecond,
	})
	degraded := 0
	for i := range interrupted.Apps {
		if interrupted.Apps[i].Incomplete {
			degraded++
		}
		if n := interrupted.Apps[i].Diag.Cache.StorePuts; n != 0 {
			t.Errorf("interrupted scan of %s wrote %d cache entries", interrupted.Apps[i].Name, n)
		}
	}
	if degraded == 0 {
		t.Fatalf("nanosecond deadline degraded no scans; the interruption premise failed")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("read cache dir: %v", err)
	}
	if len(entries) != 0 {
		t.Fatalf("interrupted run left %d files in the cache", len(entries))
	}

	// The next clean run over the same directory matches the baseline.
	got := goldenReportTextWith(t, core.Options{Workers: 1, CacheDir: dir, CacheMode: core.CacheRW})
	if got != baseline {
		t.Errorf("clean run after interruption differs from baseline:\n%s", firstDiff(baseline, got))
	}
}

// TestGoldenSnapshotUnderCacheRW: the committed golden_reports.txt
// snapshot must hold with the cache on — both the cold pass that fills
// the cache and the warm pass served from it.
func TestGoldenSnapshotUnderCacheRW(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "golden_reports.txt"))
	if err != nil {
		t.Fatalf("missing snapshot: %v", err)
	}
	dir := testCacheDir(t)
	opts := core.Options{Workers: 1, CacheDir: dir, CacheMode: core.CacheRW}
	for _, pass := range []string{"cold", "warm"} {
		if got := goldenReportTextWith(t, opts); got != string(want) {
			t.Errorf("%s pass diverges from the committed snapshot:\n%s",
				pass, firstDiff(string(want), got))
		}
	}
}

// mustGoldens builds the 16 golden apps as corpus entries for ScanApps.
func mustGoldens(t *testing.T) []*corpus.CorpusApp {
	t.Helper()
	apps, err := corpus.BuildGoldens()
	if err != nil {
		t.Fatalf("BuildGoldens: %v", err)
	}
	specs := corpus.GoldenSpecs()
	out := make([]*corpus.CorpusApp, len(apps))
	for i := range apps {
		out[i] = &corpus.CorpusApp{
			Name: "golden-" + specs[i].Name, Spec: specs[i].Spec,
			App: apps[i], Golden: true,
		}
	}
	return out
}

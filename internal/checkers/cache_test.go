package checkers

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/android"
	"repro/internal/apimodel"
	"repro/internal/apk"
	"repro/internal/jimple"
)

// cacheTestApp returns a small interprocedural app: an activity whose
// entry point routes a request through a helper, so both result caching
// and summary caching have something to store.
const cacheTestSrc = `class t.Main extends android.app.Activity {
  method onCreate(android.os.Bundle)void {
    local c com.turbomanage.httpclient.BasicHttpClient
    c = new com.turbomanage.httpclient.BasicHttpClient
    specialinvoke c com.turbomanage.httpclient.BasicHttpClient.<init>()void
    staticinvoke t.Main.submit(com.turbomanage.httpclient.BasicHttpClient)void c
    return
  }
  method static submit(com.turbomanage.httpclient.BasicHttpClient)void {
    local c com.turbomanage.httpclient.BasicHttpClient
    local r com.turbomanage.httpclient.HttpResponse
    c = param 0 com.turbomanage.httpclient.BasicHttpClient
    r = virtualinvoke c com.turbomanage.httpclient.BasicHttpClient.get(java.lang.String)com.turbomanage.httpclient.HttpResponse "https://x"
    return
  }
}`

func cacheTestApp(t *testing.T, src string) *apk.App {
	t.Helper()
	prog := jimple.MustParse(src)
	if err := prog.Validate(); err != nil {
		t.Fatalf("test app invalid: %v", err)
	}
	man := &android.Manifest{Package: "t", Activities: []string{"t.Main"}}
	man.Normalize()
	return openApp(man, prog)
}

func assertSameFindings(t *testing.T, got, want *Result, label string) {
	t.Helper()
	if !reflect.DeepEqual(got.Reports, want.Reports) {
		t.Errorf("%s: reports differ:\n got %+v\nwant %+v", label, got.Reports, want.Reports)
	}
	if !reflect.DeepEqual(got.Stats, want.Stats) {
		t.Errorf("%s: stats differ:\n got %+v\nwant %+v", label, got.Stats, want.Stats)
	}
	if got.Incomplete != want.Incomplete {
		t.Errorf("%s: Incomplete = %v, want %v", label, got.Incomplete, want.Incomplete)
	}
}

func TestCacheHitShortCircuits(t *testing.T) {
	reg := apimodel.NewRegistry()
	dir := t.TempDir()
	opts := Options{Workers: 1, CacheDir: dir, CacheMode: CacheRW}

	cold := Analyze(cacheTestApp(t, cacheTestSrc), reg, opts)
	if cold.Incomplete {
		t.Fatalf("cold scan incomplete: %v", cold.Diagnostics.Errors)
	}
	cc := cold.Diagnostics.Cache
	if cc.StoreHits != 0 || cc.StorePuts == 0 {
		t.Fatalf("cold scan store stats: %d hits, %d puts; want 0 hits and >0 puts", cc.StoreHits, cc.StorePuts)
	}
	if cold.Diagnostics.Stage("discover") == nil {
		t.Fatalf("cold scan did not run discovery")
	}
	if len(cold.Reports) == 0 {
		t.Fatalf("cold scan found no warnings; the test app should trigger several")
	}

	// A second scan of an identical (separately constructed) app must be
	// answered entirely from the cache.
	warm := Analyze(cacheTestApp(t, cacheTestSrc), reg, opts)
	assertSameFindings(t, warm, cold, "warm vs cold")
	wc := warm.Diagnostics.Cache
	if wc.StoreHits != 1 || wc.StoreMisses != 0 {
		t.Fatalf("warm scan store stats: %+d hits, %d misses; want 1 hit, 0 misses", wc.StoreHits, wc.StoreMisses)
	}
	if warm.Diagnostics.Stage("discover") != nil || warm.Diagnostics.Stage("build") != nil {
		t.Fatalf("warm scan ran analysis stages despite a full hit: %+v", warm.Diagnostics.Stages)
	}
	if warm.Diagnostics.Stage("cacheprobe") == nil {
		t.Fatalf("warm scan missing cacheprobe stage")
	}
	// Diagnostics scale numbers are restored from the entry.
	if warm.Diagnostics.AppMethods != cold.Diagnostics.AppMethods || warm.Diagnostics.Sites != cold.Diagnostics.Sites {
		t.Fatalf("warm diagnostics scale = %d methods/%d sites, want %d/%d",
			warm.Diagnostics.AppMethods, warm.Diagnostics.Sites,
			cold.Diagnostics.AppMethods, cold.Diagnostics.Sites)
	}
}

func TestCacheReadOnlyNeverWrites(t *testing.T) {
	reg := apimodel.NewRegistry()
	dir := t.TempDir()

	off := Analyze(cacheTestApp(t, cacheTestSrc), reg, Options{Workers: 1})
	ro := Analyze(cacheTestApp(t, cacheTestSrc), reg,
		Options{Workers: 1, CacheDir: dir, CacheMode: CacheRO})
	assertSameFindings(t, ro, off, "ro vs off")
	rc := ro.Diagnostics.Cache
	if rc.StoreProbes == 0 {
		t.Fatalf("ro scan never probed the store")
	}
	if rc.StorePuts != 0 {
		t.Fatalf("ro scan wrote %d entries", rc.StorePuts)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("read cache dir: %v", err)
	}
	if len(entries) != 0 {
		t.Fatalf("ro scan left %d files in the cache directory", len(entries))
	}
}

// TestIncompleteScanNeverPoisons: a scan degraded by a mid-pipeline panic
// must not write anything — a later clean scan would otherwise be
// answered with partial results forever.
func TestIncompleteScanNeverPoisons(t *testing.T) {
	reg := apimodel.NewRegistry()
	dir := t.TempDir()
	baseline := Analyze(cacheTestApp(t, cacheTestSrc), reg, Options{Workers: 1})

	crashOpts := Options{Workers: 1, CacheDir: dir, CacheMode: CacheRW}
	crashOpts.unitHook = func(stage string, unit int) {
		if stage == "discover" {
			panic("injected discovery failure")
		}
	}
	crashed := Analyze(cacheTestApp(t, cacheTestSrc), reg, crashOpts)
	if !crashed.Incomplete {
		t.Fatalf("injected panic did not degrade the scan")
	}
	if n := crashed.Diagnostics.Cache.StorePuts; n != 0 {
		t.Fatalf("degraded scan wrote %d cache entries", n)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("read cache dir: %v", err)
	}
	if len(entries) != 0 {
		t.Fatalf("degraded scan left %d files in the cache directory", len(entries))
	}

	// The next clean rw scan misses, computes fresh, and matches the
	// cache-off baseline; the one after that hits and still matches.
	clean := Analyze(cacheTestApp(t, cacheTestSrc), reg,
		Options{Workers: 1, CacheDir: dir, CacheMode: CacheRW})
	assertSameFindings(t, clean, baseline, "clean-after-crash vs baseline")
	warm := Analyze(cacheTestApp(t, cacheTestSrc), reg,
		Options{Workers: 1, CacheDir: dir, CacheMode: CacheRW})
	assertSameFindings(t, warm, baseline, "warm-after-crash vs baseline")
	if warm.Diagnostics.Cache.StoreHits == 0 {
		t.Fatalf("post-crash warm scan did not hit")
	}
}

// TestCorruptEntriesFallBackCold: damaging every cached file on disk must
// read as a cold scan with corrupt counters — same findings, no failure —
// and the rw rescan heals the cache.
func TestCorruptEntriesFallBackCold(t *testing.T) {
	reg := apimodel.NewRegistry()
	dir := t.TempDir()
	opts := Options{Workers: 1, CacheDir: dir, CacheMode: CacheRW}

	cold := Analyze(cacheTestApp(t, cacheTestSrc), reg, opts)
	entries, err := os.ReadDir(dir)
	if err != nil || len(entries) == 0 {
		t.Fatalf("cold scan cached nothing (err=%v)", err)
	}
	for _, e := range entries {
		p := filepath.Join(dir, e.Name())
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatalf("read %s: %v", p, err)
		}
		// Truncate to simulate a writer killed mid-commit.
		if err := os.WriteFile(p, data[:len(data)/2], 0o644); err != nil {
			t.Fatalf("truncate %s: %v", p, err)
		}
	}

	resc := Analyze(cacheTestApp(t, cacheTestSrc), reg, opts)
	assertSameFindings(t, resc, cold, "rescan-over-corruption vs cold")
	if resc.Diagnostics.Cache.StoreCorrupt == 0 {
		t.Fatalf("rescan did not count the corrupt entries")
	}
	if resc.Incomplete {
		t.Fatalf("corruption degraded the scan: %v", resc.Diagnostics.Errors)
	}

	healed := Analyze(cacheTestApp(t, cacheTestSrc), reg, opts)
	assertSameFindings(t, healed, cold, "healed vs cold")
	if healed.Diagnostics.Cache.StoreHits == 0 || healed.Diagnostics.Cache.StoreCorrupt != 0 {
		t.Fatalf("cache did not heal: %+v", healed.Diagnostics.Cache)
	}
}

// TestSummarySeedingOnChangedApp: adding a class to an app invalidates
// the whole-app result entry but not the summary entries of untouched
// classes — the rescan seeds those and matches an uncached scan exactly.
func TestSummarySeedingOnChangedApp(t *testing.T) {
	const extraClass = `
class t.Extra extends java.lang.Object {
  method poke()void {
    return
  }
}`
	reg := apimodel.NewRegistry()
	dir := t.TempDir()
	opts := Options{Workers: 1, CacheDir: dir, CacheMode: CacheRW}

	v1 := Analyze(cacheTestApp(t, cacheTestSrc), reg, opts)
	if v1.Diagnostics.Cache.StorePuts == 0 {
		t.Fatalf("v1 scan cached nothing")
	}

	v2src := cacheTestSrc + extraClass
	baseline := Analyze(cacheTestApp(t, v2src), reg, Options{Workers: 1})
	v2 := Analyze(cacheTestApp(t, v2src), reg, opts)
	assertSameFindings(t, v2, baseline, "seeded v2 vs uncached v2")
	c := v2.Diagnostics.Cache
	if c.SummariesSeeded == 0 {
		t.Fatalf("v2 scan seeded no summaries: %+v", c)
	}
	if v2.Diagnostics.Stage("discover") == nil {
		t.Fatalf("v2 scan short-circuited despite changed app bytes")
	}
}

// TestCacheDisabledByDefault: without CacheDir the pipeline never touches
// the store and diagnostics stay all-zero.
func TestCacheDisabledByDefault(t *testing.T) {
	res := Analyze(cacheTestApp(t, cacheTestSrc), apimodel.NewRegistry(), Options{Workers: 1})
	c := res.Diagnostics.Cache
	if c.StoreProbes != 0 || c.StorePuts != 0 || c.StoreHits != 0 {
		t.Fatalf("cache-off scan touched the store: %+v", c)
	}
	if res.Diagnostics.Stage("cacheprobe") != nil {
		t.Fatalf("cache-off scan ran the cacheprobe stage")
	}
}

func TestParseCacheMode(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want CacheMode
		ok   bool
	}{
		{"off", CacheOff, true},
		{"ro", CacheRO, true},
		{"rw", CacheRW, true},
		{"", CacheOff, false},
		{"readwrite", CacheOff, false},
	} {
		got, err := ParseCacheMode(tc.in)
		if (err == nil) != tc.ok || got != tc.want {
			t.Errorf("ParseCacheMode(%q) = %v, %v; want %v, ok=%v", tc.in, got, err, tc.want, tc.ok)
		}
		if tc.ok && got.String() != tc.in {
			t.Errorf("CacheMode(%q).String() = %q", tc.in, got.String())
		}
	}
}

// TestNoDigestWorkWithCacheOff: digest work (a full per-class re-print
// streamed into the hasher) exists only to address cache entries, so a
// scan with the cache off — no directory, or a directory with
// -cache-mode=off — must compute zero class digests. An rw scan over the
// same app proves the counter is live.
func TestNoDigestWorkWithCacheOff(t *testing.T) {
	reg := apimodel.NewRegistry()
	for _, opts := range []Options{
		{Workers: 1},
		{Workers: 1, CacheDir: t.TempDir(), CacheMode: CacheOff},
	} {
		res := Analyze(cacheTestApp(t, cacheTestSrc), reg, opts)
		if n := res.Diagnostics.Cache.ClassDigests; n != 0 {
			t.Errorf("cache-off scan (dir=%q) computed %d class digests, want 0", opts.CacheDir, n)
		}
		if n := res.Diagnostics.Cache.StoreProbes; n != 0 {
			t.Errorf("cache-off scan (dir=%q) probed the store %d times, want 0", opts.CacheDir, n)
		}
	}
	rw := Analyze(cacheTestApp(t, cacheTestSrc), reg,
		Options{Workers: 1, CacheDir: t.TempDir(), CacheMode: CacheRW})
	if rw.Diagnostics.Cache.ClassDigests == 0 {
		t.Fatal("rw scan computed no class digests; the counter (or the digest path) is dead")
	}
}

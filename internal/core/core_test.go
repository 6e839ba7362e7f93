package core

import (
	"errors"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/android"
	"repro/internal/apk"
	"repro/internal/corpus"
	"repro/internal/jimple"
	"repro/internal/report"
	"repro/internal/testutil"
)

func buggyApp(t *testing.T) *apk.App {
	t.Helper()
	prog := jimple.MustParse(`class demo.Main extends android.app.Activity {
  method onCreate(android.os.Bundle)void {
    local c com.turbomanage.httpclient.BasicHttpClient
    local r com.turbomanage.httpclient.HttpResponse
    local b java.lang.String
    c = new com.turbomanage.httpclient.BasicHttpClient
    specialinvoke c com.turbomanage.httpclient.BasicHttpClient.<init>()void
    r = virtualinvoke c com.turbomanage.httpclient.BasicHttpClient.get(java.lang.String)com.turbomanage.httpclient.HttpResponse "https://example.com"
    b = virtualinvoke r com.turbomanage.httpclient.HttpResponse.getBodyAsString()java.lang.String
    return
  }
}`)
	man := &android.Manifest{Package: "demo", Activities: []string{"demo.Main"}}
	man.Normalize()
	return &apk.App{Manifest: man, Program: prog}
}

func TestScanAppEndToEnd(t *testing.T) {
	nc := New()
	res := nc.ScanApp(buggyApp(t))
	if len(res.Reports) == 0 {
		t.Fatal("buggy app produced no warnings")
	}
	sum := Summarize(res)
	if sum.Total != len(res.Reports) {
		t.Errorf("summary total mismatch")
	}
	wantCauses := []report.Cause{
		report.CauseNoConnectivityCheck,
		report.CauseNoTimeout,
		report.CauseNoResponseCheck,
	}
	for _, c := range wantCauses {
		if sum.ByCause[c] == 0 {
			t.Errorf("expected cause %s in scan results: %+v", c, sum.ByCause)
		}
	}
}

// TestScanAppUnencodableApp: ScanApp scans an app's container encoding,
// so an app that does not encode — no manifest, an invalid manifest, no
// program — comes back as an Incomplete result whose single error is an
// ErrDecode, not as a panic.
func TestScanAppUnencodableApp(t *testing.T) {
	prog, man := buggyApp(t).Program, buggyApp(t).Manifest
	for name, app := range map[string]*apk.App{
		"nil manifest":     {Program: prog},
		"invalid manifest": {Manifest: &android.Manifest{}, Program: prog},
		"nil program":      {Manifest: man},
	} {
		res := New().ScanApp(app)
		if !res.Incomplete || len(res.Reports) != 0 {
			t.Errorf("%s: Incomplete=%t with %d reports, want a degraded empty result", name, res.Incomplete, len(res.Reports))
		}
		if errs := res.Diagnostics.Errors; len(errs) != 1 || !errors.Is(&errs[0], ErrDecode) {
			t.Errorf("%s: errors %v, want a single ErrDecode", name, errs)
		}
		if !errors.Is(res.Err(), ErrDecode) {
			t.Errorf("%s: Err()=%v, want ErrDecode", name, res.Err())
		}
	}
}

// TestScanAppOfOpenedApp: ScanApp of a lazily opened app, whose bodies
// the open left undecoded, renders the same bytes and stats as ScanBytes
// of the container it was opened from — on the canonical fixture and on
// a padded app.
func TestScanAppOfOpenedApp(t *testing.T) {
	fixture := testutil.MustFixtureApp(t)
	padded, err := apk.Decode(fixture)
	if err != nil {
		t.Fatal(err)
	}
	corpus.AddPadding(padded, 300)
	paddedData, err := apk.Encode(padded)
	if err != nil {
		t.Fatal(err)
	}
	nc := NewWithOptions(Options{Workers: 1})
	for name, data := range map[string][]byte{"fixture": fixture, "pad300": paddedData} {
		want, err := nc.ScanBytes(data)
		if err != nil {
			t.Fatal(err)
		}
		app, err := apk.DecodeLazy(data)
		if err != nil {
			t.Fatal(err)
		}
		got := nc.ScanApp(app)
		if got.Incomplete {
			t.Fatalf("%s: ScanApp degraded: %v", name, got.Err())
		}
		if g, w := report.RenderAll(got.Reports), report.RenderAll(want.Reports); g != w || w == "" {
			t.Errorf("%s: ScanApp of the opened app renders\n%s\nScanBytes of its container renders\n%s", name, g, w)
		}
		if !reflect.DeepEqual(got.Stats, want.Stats) {
			t.Errorf("%s: stats differ: %+v vs %+v", name, got.Stats, want.Stats)
		}
	}
}

func TestScanFileAndBytes(t *testing.T) {
	app := buggyApp(t)
	path := filepath.Join(t.TempDir(), "demo.apk")
	if err := apk.WriteFile(path, app); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	nc := New()
	fromFile, err := nc.ScanFile(path)
	if err != nil {
		t.Fatalf("ScanFile: %v", err)
	}
	data, err := apk.Encode(app)
	if err != nil {
		t.Fatal(err)
	}
	fromBytes, err := nc.ScanBytes(data)
	if err != nil {
		t.Fatalf("ScanBytes: %v", err)
	}
	if len(fromFile.Reports) != len(fromBytes.Reports) {
		t.Errorf("file vs bytes scan disagree: %d vs %d", len(fromFile.Reports), len(fromBytes.Reports))
	}
	if _, err := nc.ScanBytes([]byte("garbage")); err == nil {
		t.Error("garbage bytes should error")
	}
	if _, err := nc.ScanFile(filepath.Join(t.TempDir(), "nope.apk")); err == nil {
		t.Error("missing file should error")
	}
}

func TestScanDeterministic(t *testing.T) {
	nc := New()
	a := nc.ScanApp(buggyApp(t))
	b := nc.ScanApp(buggyApp(t))
	if len(a.Reports) != len(b.Reports) {
		t.Fatalf("scan nondeterministic: %d vs %d reports", len(a.Reports), len(b.Reports))
	}
	for i := range a.Reports {
		if a.Reports[i].Cause != b.Reports[i].Cause ||
			a.Reports[i].Location.Method.Key() != b.Reports[i].Location.Method.Key() ||
			a.Reports[i].Location.Stmt != b.Reports[i].Location.Stmt {
			t.Errorf("report %d differs across runs", i)
		}
	}
	if a.Stats.Requests != b.Stats.Requests ||
		a.Stats.MissConnCheck != b.Stats.MissConnCheck ||
		a.Stats.MissTimeout != b.Stats.MissTimeout {
		t.Errorf("stats differ across runs: %+v vs %+v", a.Stats, b.Stats)
	}
}

// TestConcurrentScans: the Checker is safe for concurrent use — parallel
// scans of the same app produce identical results (run under -race in CI).
func TestConcurrentScans(t *testing.T) {
	nc := NewWithOptions(Options{Workers: 4})
	app := buggyApp(t)
	baseline := nc.ScanApp(app)
	const workers = 8
	results := make([]*Result, workers)
	done := make(chan int, workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			results[w] = nc.ScanApp(app)
			done <- w
		}(w)
	}
	for i := 0; i < workers; i++ {
		<-done
	}
	for w, res := range results {
		if len(res.Reports) != len(baseline.Reports) {
			t.Errorf("worker %d: %d reports vs baseline %d", w, len(res.Reports), len(baseline.Reports))
		}
	}
}

// TestWorkersDeterminism: the same app scanned by checkers configured
// with Workers=1 and Workers=8 must produce byte-identical rendered
// reports and identical stats.
func TestWorkersDeterminism(t *testing.T) {
	app := buggyApp(t)
	render := func(res *Result) string {
		var b []byte
		for i := range res.Reports {
			b = append(b, res.Reports[i].Render()...)
			b = append(b, '\n')
		}
		return string(b)
	}
	seq := NewWithOptions(Options{Workers: 1}).ScanApp(app)
	par := NewWithOptions(Options{Workers: 8}).ScanApp(app)
	if got, want := render(par), render(seq); got != want {
		t.Errorf("Workers=8 reports differ from Workers=1:\n--- 1 ---\n%s--- 8 ---\n%s", want, got)
	}
	if !reflect.DeepEqual(seq.Stats, par.Stats) {
		t.Errorf("stats differ: %+v vs %+v", seq.Stats, par.Stats)
	}
}

package fixer

import (
	"testing"

	"repro/internal/apimodel"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/report"
)

// TestUserStudyFixesEliminateWarnings replays the paper's user study
// mechanically: each Table 10 app is scanned, the reported NPD's fix is
// applied, and a re-scan must show the named warning gone.
func TestUserStudyFixesEliminateWarnings(t *testing.T) {
	nc := core.New()
	for _, ua := range corpus.UserStudySpecs() {
		ua := ua
		t.Run(ua.Name, func(t *testing.T) {
			app := corpus.MustBuild(ua.Spec)
			before := nc.ScanApp(app)
			if len(before.Reports) == 0 {
				t.Fatal("study app has no warnings to fix")
			}
			f := New()
			out, err := f.FixAll(app, 50)
			if err != nil {
				t.Fatalf("FixAll: %v", err)
			}
			if out.Remaining != 0 {
				after := nc.ScanApp(app)
				t.Fatalf("warnings remain after fixing: %d (%v)", out.Remaining, causesOf(after))
			}
			if out.Applied == 0 {
				t.Error("no fixes applied")
			}
		})
	}
}

func causesOf(res *core.Result) []report.Cause {
	out := make([]report.Cause, len(res.Reports))
	for i := range res.Reports {
		out[i] = res.Reports[i].Cause
	}
	return out
}

// TestFixAllDrivesGoldenToZero fixes a whole golden app (including the
// false-positive shapes — inserting a redundant check is harmless).
func TestFixAllDrivesGoldenToZero(t *testing.T) {
	for _, g := range corpus.GoldenSpecs()[:4] {
		g := g
		t.Run(g.Name, func(t *testing.T) {
			app := corpus.MustBuild(g.Spec)
			f := New()
			out, err := f.FixAll(app, 400)
			if err != nil {
				t.Fatalf("FixAll: %v", err)
			}
			if out.Remaining != 0 {
				t.Errorf("golden %s: %d warnings remain after %d fixes", g.Name, out.Remaining, out.Applied)
			}
			if err := app.Program.Validate(); err != nil {
				t.Errorf("fixed program invalid: %v", err)
			}
		})
	}
}

// TestEachCauseFixable exercises one fix per cause.
func TestEachCauseFixable(t *testing.T) {
	specs := map[report.Cause]corpus.SiteSpec{
		report.CauseNoConnectivityCheck: {Lib: libBasic(), Ctx: corpus.CtxActivity,
			SetTimeout: true, SetRetry: true, RetryCount: 1, Notify: true},
		report.CauseNoTimeout: {Lib: libBasic(), Ctx: corpus.CtxActivity,
			ConnCheck: true, SetRetry: true, RetryCount: 1, Notify: true},
		report.CauseNoRetryConfig: {Lib: libBasic(), Ctx: corpus.CtxActivity,
			ConnCheck: true, SetTimeout: true, Notify: true},
		report.CauseNoRetryTimeSensitive: {Lib: libBasic(), Ctx: corpus.CtxActivity,
			ConnCheck: true, SetTimeout: true, SetRetry: true, RetryCount: 0, Notify: true},
		report.CauseOverRetryService: {Lib: libBasic(), Ctx: corpus.CtxService,
			ConnCheck: true, SetTimeout: true, SetRetry: true, RetryCount: 3},
		report.CauseOverRetryPost: {Lib: libBasic(), Ctx: corpus.CtxActivity, Post: true,
			ConnCheck: true, SetTimeout: true, SetRetry: true, RetryCount: 3, Notify: true},
		report.CauseNoFailureNotification: {Lib: libBasic(), Ctx: corpus.CtxActivity,
			ConnCheck: true, SetTimeout: true, SetRetry: true, RetryCount: 1},
		report.CauseNoResponseCheck: {Lib: libBasic(), Ctx: corpus.CtxActivity,
			ConnCheck: true, SetTimeout: true, SetRetry: true, RetryCount: 1, Notify: true,
			UseResponse: true},
		report.CauseAggressiveRetryLoop: {Lib: libBasic(), Ctx: corpus.CtxActivity,
			ConnCheck: true, SetTimeout: true, SetRetry: true, RetryCount: 1, Notify: true,
			RetryLoop: true},
	}
	nc := core.New()
	for cause, site := range specs {
		cause, site := cause, site
		t.Run(string(cause), func(t *testing.T) {
			app := corpus.MustBuild(corpus.AppSpec{Package: "fix.one", Sites: []corpus.SiteSpec{site}})
			res := nc.ScanApp(app)
			var target *report.Report
			for i := range res.Reports {
				if res.Reports[i].Cause == cause {
					target = &res.Reports[i]
					break
				}
			}
			if target == nil {
				t.Fatalf("cause %s not present before fixing: %v", cause, causesOf(res))
			}
			f := New()
			if err := f.Apply(app, target); err != nil {
				t.Fatalf("Apply: %v", err)
			}
			after := nc.ScanApp(app)
			for i := range after.Reports {
				if after.Reports[i].Cause == cause {
					t.Fatalf("cause %s still reported after fix: %v", cause, causesOf(after))
				}
			}
		})
	}
}

func TestErrorTypeFix(t *testing.T) {
	site := corpus.SiteSpec{Lib: libVolley(), Ctx: corpus.CtxActivity,
		ConnCheck: true, SetTimeout: true, SetRetry: true, RetryCount: 1, Notify: true}
	app := corpus.MustBuild(corpus.AppSpec{Package: "fix.et", Sites: []corpus.SiteSpec{site}})
	nc := core.New()
	res := nc.ScanApp(app)
	var target *report.Report
	for i := range res.Reports {
		if res.Reports[i].Cause == report.CauseNoErrorTypeCheck {
			target = &res.Reports[i]
		}
	}
	if target == nil {
		t.Fatalf("no error-type warning: %v", causesOf(res))
	}
	if err := New().Apply(app, target); err != nil {
		t.Fatalf("Apply: %v", err)
	}
	after := nc.ScanApp(app)
	for i := range after.Reports {
		if after.Reports[i].Cause == report.CauseNoErrorTypeCheck {
			t.Fatalf("error-type warning persists: %v", causesOf(after))
		}
	}
}

func TestApplyRejectsUnknownLocation(t *testing.T) {
	app := corpus.MustBuild(corpus.AppSpec{Package: "fix.bad", Sites: []corpus.SiteSpec{
		{Lib: libBasic(), Ctx: corpus.CtxActivity},
	}})
	r := &report.Report{Cause: report.CauseNoTimeout}
	if err := New().Apply(app, r); err == nil {
		t.Error("empty location accepted")
	}
}

func libBasic() apimodel.LibKey  { return apimodel.LibBasic }
func libVolley() apimodel.LibKey { return apimodel.LibVolley }

// TestFixAllConvergesOnGeneratedApps: property — for a sample of
// generated corpus apps, FixAll drives every warning to zero and leaves a
// valid program.
func TestFixAllConvergesOnGeneratedApps(t *testing.T) {
	apps, err := corpus.GenerateCorpus(99)
	if err != nil {
		t.Fatal(err)
	}
	nc := core.New()
	tested := 0
	for i := corpus.NumGoldens; i < len(apps) && tested < 8; i += 37 {
		a := apps[i]
		before := nc.ScanApp(a.App)
		if len(before.Reports) == 0 {
			continue
		}
		tested++
		f := New()
		out, err := f.FixAll(a.App, 600)
		if err != nil {
			t.Errorf("%s: FixAll: %v", a.Name, err)
			continue
		}
		if out.Remaining != 0 {
			after := nc.ScanApp(a.App)
			t.Errorf("%s: %d warnings remain (%v)", a.Name, out.Remaining, causesOf(after))
		}
		if err := a.App.Program.Validate(); err != nil {
			t.Errorf("%s: patched program invalid: %v", a.Name, err)
		}
	}
	if tested == 0 {
		t.Fatal("no buggy apps sampled")
	}
}

// warningKeys counts a scan's warnings as (cause, method) pairs: the
// identity of a warning that a fix inserted elsewhere in the same method
// leaves intact (only the statement index of later warnings shifts).
func warningKeys(res *core.Result) map[string]int {
	out := make(map[string]int, len(res.Reports))
	for i := range res.Reports {
		out[warningKey(&res.Reports[i])]++
	}
	return out
}

func warningKey(r *report.Report) string {
	return string(r.Cause) + " " + r.Location.Method.Key()
}

// TestFixEachGoldenWarningAlone is the fixer's metamorphic relation over
// the goldens: fixing any one warning W of a fresh golden app and
// rescanning removes W and adds no warning, compared as (cause, method)
// multisets. Other warnings may go too — a retry-config fix, for one,
// also settles the site's over-retry warning.
func TestFixEachGoldenWarningAlone(t *testing.T) {
	nc := core.New()
	fixed := 0
	for _, g := range corpus.GoldenSpecs() {
		before := nc.ScanApp(corpus.MustBuild(g.Spec))
		allowed := warningKeys(before)
		for i := range before.Reports {
			w := &before.Reports[i]
			// Each fix starts from a fresh build, so W's location is
			// exactly the one the scan reported.
			app := corpus.MustBuild(g.Spec)
			if err := New().Apply(app, w); err != nil {
				t.Errorf("%s: fixing %s at %d: %v", g.Name, warningKey(w), w.Location.Stmt, err)
				continue
			}
			fixed++
			allowed[warningKey(w)]--
			for k, n := range warningKeys(nc.ScanApp(app)) {
				if n > allowed[k] {
					t.Errorf("%s: after fixing %s: %q reported %d times, want at most %d",
						g.Name, warningKey(w), k, n, allowed[k])
				}
			}
			allowed[warningKey(w)]++
		}
	}
	if fixed == 0 {
		t.Fatal("the goldens have no warnings to fix")
	}
}

package checkers

import (
	"context"
	"slices"
	"strings"
	"time"

	"repro/internal/apimodel"
	"repro/internal/apk"
	"repro/internal/baselayer"
	"repro/internal/callgraph"
	"repro/internal/report"
)

// Analyze runs all checkers over the app using the registry's annotations.
//
// The scan is a staged pass pipeline:
//
//	build      — run the demand closure over the skim index, decode the
//	             demanded classes, overlay the app on the framework base
//	             layer, and build the class hierarchy and the call graph
//	summaries  — the interprocedural taint summaries (skipped under
//	             Options.Intraprocedural)
//	discover   — find and resolve every request site (§4.4), one unit
//	             per method
//	settings | parameters | notifications | responses | offlinestate |
//	stalechecks | endpoints | retryloops
//	           — the eight checker families (§4.4.1–4.4.4, §4.5, and the
//	             registry growth of DESIGN.md §11), one unit per site (or
//	             per method); Options.Checkers selects which families run
//
// The stages and their units run in this fixed order on the caller's
// goroutine, so stage timings never overlap and the report stream is
// deterministic. All stages share one AnalysisContext, so each per-method
// artifact (CFG, reaching defs, …) is computed at most once per scan.
//
// Analyze runs with background context; AnalyzeContext adds deadlines and
// cancellation.
func Analyze(app *apk.App, reg *apimodel.Registry, opts Options) *Result {
	return AnalyzeContext(context.Background(), app, reg, opts)
}

// AnalyzeContext is Analyze under a caller context. The app must come
// from apk.DecodeLazy, as every scan's does (core opens container bytes,
// and encodes an app built in memory first): the demand closure reads its
// skim index, and only the classes the closure demands are decoded.
//
// The scan is fault-isolated end to end: a panic in any stage or work
// unit, an expired Options.Timeout, or cancellation of ctx never crashes
// or wedges the scan. Instead the failed stage/unit is dropped, every
// stage that completed contributes its findings through the same
// deterministic merge, and the Result comes back Incomplete with
// the failures recorded in Diagnostics.Errors as a sorted ScanError list.
func AnalyzeContext(ctx context.Context, app *apk.App, reg *apimodel.Registry, opts Options) *Result {
	start := time.Now()
	if opts.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, opts.Timeout)
		defer cancel()
	}
	a := &analysis{
		app:     app,
		reg:     reg,
		opts:    opts,
		scanCtx: ctx,
		scratch: getScratch(),
	}
	diag := &a.diag
	diag.Stages = make([]StageTiming, 0, len(stageOrder))

	finish := func(res *Result) *Result {
		putScratch(a.scratch)
		sortScanErrors(a.errs)
		diag.Errors = a.errs
		res.Incomplete = len(a.errs) > 0
		diag.Total = time.Since(start)
		res.Diagnostics = *diag
		return res
	}

	// Cache probe: an unchanged app (same bytes, registry, engine, and
	// options) is answered straight from the persistent store. The probe
	// runs under cacheGuard, not guard — cache trouble of any kind reads
	// as a miss plus a corrupt counter, never as a scan failure.
	if opts.cacheEnabled() {
		probeStart := time.Now()
		var hit *Result
		a.cacheGuard(func() { hit = a.probeCache() })
		diag.add("cacheprobe", time.Since(probeStart), 1, 0)
		if hit != nil {
			return finish(hit)
		}
	}

	buildStart := time.Now()
	a.guard("build", func() {
		// The demand closure first: it decides which classes are decoded
		// and analyzed (targeted.go).
		a.prepareBuild()
		base := baselayer.Get()
		a.h = base.Overlay(app.Program, &a.scratch.hier)
		a.cg = base.CallGraph(a.h, app.Manifest, callgraph.Options{
			DeclaredDispatchOnly: opts.DeclaredDispatchOnly,
			EnableICC:            opts.EnableICC,
			Scratch:              &a.scratch.graph,
		})
		a.ctx = newAnalysisContext(a.cg, &diag.Cache, a.scratch)
		a.methods = a.collectAppMethods()
		if !opts.Intraprocedural {
			a.configureSummaries()
		}
	})
	diag.add("build", time.Since(buildStart), len(a.methods), 0)
	if a.ctx == nil {
		// The build stage died (panic or pre-expired deadline): nothing
		// downstream can run without the call graph. Return the degraded
		// empty result instead of crashing the scan.
		return finish(&Result{})
	}

	// Interprocedural summaries are built eagerly under their own stage
	// guard so -timings attributes the cost distinctly and a failure (or a
	// deadline hit inside the bottom-up pass) degrades every consumer to
	// intraprocedural facts instead of crashing the scan: the producer is
	// tried once, so no later consult runs it again.
	if !opts.Intraprocedural {
		sumStart := time.Now()
		a.guard("summaries", func() { a.ctx.Summaries() })
		diag.add("summaries", time.Since(sumStart), len(a.methods), 0)
	}

	// Discovery must complete before the checkers: they all consume the
	// frozen site list.
	discoverStart := time.Now()
	a.runStage("discover", a.discoverSites)
	diag.add("discover", time.Since(discoverStart), len(a.methods), 0)

	// The checker stages, in family order; Options.Checkers filters them
	// so disabled families never run (the -checkers ablation and
	// selection). Every stage appends to the scan's findings as
	// it runs, so the findings stay in stage order: discovery's stats
	// first, then the checker stages'. A degraded stage simply
	// contributes fewer (or zero) reports; the surviving stages' reports
	// are byte-identical to a clean scan's.
	for family := 1; family <= len(checkerStages); family++ {
		if !opts.Checkers.Enabled(family) {
			continue
		}
		name := checkerStages[family-1]
		t0 := time.Now()
		run, items := a.checkerStage(family)
		n := a.runStage(name, run)
		diag.add(name, time.Since(t0), items, n)
	}
	found := &a.scratch.found
	res := &Result{Stats: found.stats}
	// The app holds undecoded bodies outside the closure, so library usage
	// resolves from the skim's referenced classes — pinned equal to
	// LibsUsedBy over the decoded program.
	res.Stats.LibsUsed = reg.LibsUsedByRefs(app.Lazy.EachRefClass)
	// The reports are sorted by (location method key, statement, cause),
	// stably in stage order, through an index over the scratch, and each
	// is copied once, into an exact-size result. The result is nil when
	// no stage reported, as the cache differential's DeepEqual against a
	// decoded entry requires.
	if n := len(found.reports); n > 0 {
		s := a.scratch
		for _, m := range found.methods {
			s.keys = append(s.keys, a.methodKey(m))
		}
		for i := range n {
			s.order = append(s.order, int32(i))
		}
		slices.SortStableFunc(s.order, func(i, j int32) int {
			return compareReports(s.keys[i], s.keys[j], &found.reports[i], &found.reports[j])
		})
		res.Reports = make([]report.Report, n)
		for i, o := range s.order {
			res.Reports[i] = found.reports[o]
		}
	}
	// Dynamic validation replays each warning's witness entry point under
	// injected disruptions and stamps a verdict on the report (validate.go).
	// It runs after the sort (verdict order matches report order) and
	// before cachewrite, so a clean validated scan persists its verdicts.
	// A warning the stage never reached — replay panic, deadline, stage
	// failure — is swept to NotValidated here: with -validate on, every
	// emitted warning carries a verdict, and a degraded replay can only
	// degrade its own warning, never the scan.
	if opts.Validate {
		valStart := time.Now()
		a.guard("validate", func() { a.validateReports(res.Reports) })
		for i := range res.Reports {
			if res.Reports[i].Validation == "" {
				res.Reports[i].Validation = report.ValidationNotValidated
				res.Reports[i].ValidationNote = "validation did not complete"
				diag.Validate.NotValidated++
			}
		}
		diag.add("validate", time.Since(valStart), len(res.Reports), 0)
	}
	// Cache write: only a clean scan commits. Any ScanError — a stage
	// panic, an expired deadline, a cancellation — means the result may be
	// partial, and an incomplete result must never poison the cache.
	if a.store != nil && opts.CacheMode == CacheRW && len(a.errs) == 0 {
		writeStart := time.Now()
		a.cacheGuard(func() { a.writeCache(res) })
		diag.add("cachewrite", time.Since(writeStart), diag.Cache.StorePuts, 0)
	}

	diag.AppMethods = len(a.methods)
	diag.Sites = len(a.sites)
	return finish(res)
}

// stageOrder lists every pipeline stage in run order: the cache probe,
// the build, summaries and discovery, the eight checker stages in family
// order (checkerStages), validation and the cache write. The checker
// loop reads its stage names from it, and Diagnostics.Errors sorts by it.
var stageOrder = [...]string{
	"cacheprobe", "build", "summaries", "discover",
	"settings", "parameters", "notifications", "responses",
	"offlinestate", "stalechecks", "endpoints", "retryloops",
	"validate", "cachewrite",
}

// checkerStages are the checker families' stages: family f's is
// checkerStages[f-1].
var checkerStages = stageOrder[4:12]

// checkerStage returns the run function of family f's stage and the
// number of work units it runs over.
func (a *analysis) checkerStage(family int) (run func(), items int) {
	switch family {
	case 1:
		return a.checkRequestSettings, len(a.sites)
	case 2:
		return a.checkParameters, len(a.sites)
	case 3:
		return a.checkNotifications, len(a.sites)
	case 4:
		return a.checkResponses, len(a.sites)
	case 5:
		return a.checkOfflineState, len(a.methods)
	case 6:
		return a.checkStaleChecks, len(a.sites)
	case 7:
		return a.checkEndpoints, len(a.methods)
	default:
		return a.checkRetryLoops, len(a.methods)
	}
}

// runStage runs one stage that appends to the scan's findings under
// guard, and returns how many reports it added. A stage that fails
// outside its work units (a stage-level panic, a context already done)
// contributes nothing: what it had appended is dropped, its stats
// included, as if it had returned no findings.
func (a *analysis) runStage(name string, run func()) int {
	f := &a.scratch.found
	mark, stats := len(f.reports), f.stats
	done := false
	a.guard(name, func() { run(); done = true })
	if !done {
		clear(f.reports[mark:])
		clear(f.methods[mark:])
		f.reports, f.methods, f.stats = f.reports[:mark], f.methods[:mark], stats
	}
	return len(f.reports) - mark
}

// compareReports orders reports by (location method key, statement,
// cause), given their keys.
func compareReports(ka, kb string, a, b *report.Report) int {
	if ka != kb {
		return strings.Compare(ka, kb)
	}
	if a.Location.Stmt != b.Location.Stmt {
		return a.Location.Stmt - b.Location.Stmt
	}
	return strings.Compare(string(a.Cause), string(b.Cause))
}

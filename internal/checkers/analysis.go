// Package checkers implements NChecker's four NPD analyses over a parsed
// app (paper §4.4) plus the customized retry-loop identification (§4.5):
//
//  1. request-setting checks — connectivity checks on every entry→request
//     path (interprocedural must-precede) and missing config APIs
//     discovered by tainting the request's config object,
//  2. improper API parameters — retry counts judged against the request
//     context (Activity vs. Service, POST) via constant propagation,
//  3. failure-notification checks — UI-alert calls in request callbacks of
//     user-initiated requests, and error-type usage in error callbacks,
//  4. response-validity checks — taint the response object and require a
//     validity check on every def→use path.
//
// The entry point is Analyze, which runs a staged pass pipeline (see
// pipeline.go): request-site discovery, the checker families, and
// retry-loop identification are named stages run one after another, each
// over its work units (sites or methods) in a fixed order, all on the
// caller's goroutine. Stages share per-method analysis artifacts through
// an AnalysisContext (context.go) and report per-stage wall time and
// cache statistics through Diagnostics (diagnostics.go). Concurrency is
// across scans, never inside one; what concurrent scans share (the frozen
// framework base layer, the registry, the cache store, buffer pools)
// keeps its own synchronization.
package checkers

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"sort"
	"time"

	"repro/internal/android"
	"repro/internal/apimodel"
	"repro/internal/apk"
	"repro/internal/cachestore"
	"repro/internal/callgraph"
	"repro/internal/cfg"
	"repro/internal/dataflow"
	"repro/internal/dex"
	"repro/internal/hierarchy"
	"repro/internal/jimple"
	"repro/internal/report"
)

// Options tunes the analysis.
type Options struct {
	// DisableTaintConfigDiscovery replaces the taint-based config-API
	// discovery with a whole-method scan (ablation baseline): any config
	// call in the method counts, even on an unrelated client object.
	DisableTaintConfigDiscovery bool
	// DisableRetrySlicing disables the backward-slicing step of retry-loop
	// identification (ablation): any loop containing a request counts as
	// a retry loop.
	DisableRetrySlicing bool
	// DeclaredDispatchOnly forwards to callgraph.Options (ablation).
	DeclaredDispatchOnly bool
	// EnableICC turns on the inter-component analysis (callgraph.Options
	// .EnableICC) — the paper's §4.7 future work. It removes the false
	// positives caused by connectivity checks in a launching activity and
	// by failure notifications routed through broadcasts.
	EnableICC bool
	// Intraprocedural disables the summary-based interprocedural taint
	// engine and path-feasibility pruning (ablation baseline): checkers
	// 1/3/4 stop at method boundaries as the pre-summary analyzer did.
	// The precision/recall delta against the default interprocedural mode
	// is what internal/experiments measures on the examples corpus.
	Intraprocedural bool
	// Checkers selects which checker families run (the -checkers ablation
	// flag). The zero value runs all families; see CheckerSet. Disabled
	// families skip their pipeline stages entirely — their reports and
	// stat counters simply do not appear — so the selection joins the
	// cache fingerprint.
	Checkers CheckerSet
	// GuardSensitiveConnCheck tightens Checker 1: a connectivity check
	// only satisfies the analysis when its result actually governs a
	// branch (tracked by forward taint from the check's result to an if
	// condition). This removes the paper's §5.3 false negatives, where a
	// check is invoked but its result ignored. Off by default to match
	// the published tool's path-insensitive behaviour.
	GuardSensitiveConnCheck bool
	// Validate enables the dynamic counterexample validation stage
	// (validate.go): after the checkers, each warning's witness entry
	// point is replayed under injected network disruptions (internal/interp
	// + internal/netsim) and the report carries a confirmed / unconfirmed /
	// not-validated verdict. Off by default; verdicts join the persistent
	// cache fingerprint.
	Validate bool
	// Workers is how many apps a batch caller scans at once
	// (cmd/nchecker's file pool, experiments.ScanApps); 0 means one per
	// CPU. The analysis never reads it: one scan runs on its caller's
	// goroutine.
	Workers int
	// Timeout bounds one scan's wall time; 0 means no deadline. An
	// expired deadline never aborts the process: the scan stops
	// dispatching work, keeps every completed stage's findings, and marks
	// the Result Incomplete with an ErrDeadline in Diagnostics.Errors.
	Timeout time.Duration

	// CacheDir, when non-empty and CacheMode is not CacheOff, enables the
	// persistent content-addressed scan cache (internal/cachestore) rooted
	// at that directory. Unchanged apps are answered from cache without
	// analysis; a changed app misses and is rescanned cold. See cache.go
	// for key anatomy and fault semantics — cache trouble degrades to a
	// cold scan, never to a failed one.
	CacheDir string
	// CacheMode selects off / read-only / read-write use of CacheDir.
	CacheMode CacheMode
	// CacheMaxBytes bounds the on-disk cache size (LRU eviction);
	// 0 means cachestore.DefaultMaxBytes.
	CacheMaxBytes int64

	// unitHook, when set, runs at the start of every pipeline work unit
	// with the stage name and unit index. Tests use it to inject panics
	// and cancellations at precise points; it is never set in production.
	unitHook func(stage string, unit int)
	// oracle swaps the demand-driven closure for the whole-program test
	// oracle (oracle.go): every bodied class demanded, every method a
	// summary root. Only OracleOptions sets it, and only in test binaries.
	oracle bool
}

// Stats aggregates per-request findings for one app; the evaluation
// harness (Tables 6 and 8, Figures 8 and 9) is computed from these.
type Stats struct {
	Requests     int
	UserRequests int
	// RetryEvalRequests counts requests made with retry-capable libraries
	// (the denominator of the retry rows of Tables 6 and 8).
	RetryEvalRequests int

	MissConnCheck   int // requests without a guarding connectivity check
	MissTimeout     int // requests without a timeout config call
	MissRetryConfig int // requests (retry-capable libs) without retry config

	UserRequestsNoNotif      int // user requests without failure notification
	ExplicitCallbackReqs     int
	ExplicitCallbackNotified int
	ImplicitCallbackReqs     int
	ImplicitCallbackNotified int
	ErrorCallbacks           int // error callbacks receiving a typed error object
	ErrorTypeChecked         int // ... that actually inspect the error object

	NoRetryTimeSensitive    int
	OverRetryService        int
	OverRetryServiceDefault int
	OverRetryPost           int
	OverRetryPostDefault    int

	RespRequests  int // requests on libraries with response-check APIs
	RespMissCheck int

	RetryLoops           int
	AggressiveRetryLoops int

	// Checker 5 (offline-state handling).
	OfflineHandlers   int // network-state handlers examined
	OfflineNoRecovery int // ... with neither retry nor cached-content fallback

	// Checker 6 (stale connectivity check).
	GuardedSites    int // request sites with a must-preceding connectivity check
	StaleConnChecks int // ... whose every guard is stale (loop/wait/callback gap)

	// Checker 7 (endpoint hygiene).
	EndpointSites        int // URL-bearing call sites examined
	ResolvedEndpoints    int // ... whose URL constant-propagated to a literal
	CleartextEndpoints   int
	HardcodedIPEndpoints int

	// Checker 8 extension (retry storm: backoff off the retry path).
	RetryStorms int

	LibsUsed []apimodel.LibKey
}

// Result bundles an app's warnings, statistics, and scan diagnostics.
// A degraded scan (a stage panicked, the deadline expired, the context
// was canceled) sets Incomplete: Reports and Stats then hold everything
// the surviving stages produced — still deterministically ordered — and
// Diagnostics.Errors records what was lost.
type Result struct {
	Reports     []report.Report
	Stats       Stats
	Incomplete  bool
	Diagnostics Diagnostics
}

// findings collects the scan's warnings and stat counts: the stages run
// one after another, and each one's units append in unit order. Each
// report is built once, as a value in the scan's scratch (scanScratch),
// beside the method it is located in, whose key sorts it; the pipeline
// copies each report once, into the Result.
type findings struct {
	reports []report.Report
	methods []*jimple.Method
	stats   Stats
}

// report appends r, located at statement stmt of method at: report sets
// r's Location, so the location and the method whose key sorts r agree.
func (f *findings) report(at *jimple.Method, stmt int, r report.Report) {
	r.Location = report.Loc{Method: at.Sig, Stmt: stmt}
	f.reports = append(f.reports, r)
	f.methods = append(f.methods, at)
}

// requestSite is one network-request call site with everything the
// checkers need resolved.
type requestSite struct {
	method *jimple.Method
	stmt   int
	inv    jimple.InvokeExpr
	lib    *apimodel.Library
	target *apimodel.Target

	component     string
	kind          android.ComponentKind
	userInitiated bool
	httpMethod    string

	configCalls []dataflow.ObjectCall
	configObj   string // local holding the config object ("" if unresolved)

	timeoutSet bool
	retrySet   bool
	retryCount int  // effective retry count
	retryKnown bool // retryCount is meaningful
	// entry is the call-graph id of the representative entry point the
	// report's call stack starts from; -1 for none.
	entry int32
}

// analysis carries the state of one app scan. After the discovery stage
// runs, methods and sites are frozen; the checker stages only read them
// and append to the scan's findings.
type analysis struct {
	app  *apk.App
	reg  *apimodel.Registry
	h    *hierarchy.Hierarchy
	cg   *callgraph.Graph
	opts Options
	ctx  *AnalysisContext

	// scanCtx carries the scan's deadline and cancellation; every stage
	// and work unit checks it first.
	scanCtx context.Context

	// scratch is the scan's pooled working memory, the findings
	// included; it goes back to its pool when the scan ends.
	scratch *scanScratch

	// errs holds the scan's failure records, sorted deterministically into
	// Diagnostics.Errors when the scan finishes.
	errs []ScanError

	methods []*jimple.Method // app's body-bearing methods, sorted by key
	sites   []*requestSite

	// connMP is the connectivity-check must-precede shared by the
	// settings and stalechecks stages, built once (connTried); connPanic
	// keeps a panic of that build so each stage that asks for it fails the
	// same way.
	connTried bool
	connMP    *dataflow.MustPrecede
	connPanic any

	// Demand-closure state (targeted.go), frozen at the start of the build
	// stage. index is the app's skim; roots holds the relevant-method
	// closure (sorted keys); demanded the class closure (index slots,
	// ascending).
	index    *dex.Index
	roots    []string
	demanded []int32

	// diag is the scan's Diagnostics, filled in place: stage timings by
	// the pipeline, Targeted by the closure, Validate by the validate
	// stage, Cache's store counters by the cache stages (cache.go), and
	// its artifact counters by the AnalysisContext.
	diag Diagnostics

	// Persistent-cache state (cache.go): probed before build, written
	// after the merge.
	store         *cachestore.Store
	resultKey     cachestore.Key
	haveResultKey bool
}

// fail records one survivable scan failure.
func (a *analysis) fail(e ScanError) {
	a.errs = append(a.errs, e)
}

// failCancel records the scan context's termination as an ErrDeadline or
// ErrCanceled for the given stage.
func (a *analysis) failCancel(stage string, err error) {
	kind := ErrCanceled
	if errors.Is(err, context.DeadlineExceeded) {
		kind = ErrDeadline
	}
	a.fail(ScanError{Kind: kind, Stage: stage, Unit: -1, Msg: err.Error()})
}

// runUnit executes one work unit with panic isolation: a panic is
// converted into an ErrStagePanic record (message + stack) and only that
// unit's findings are lost.
func (a *analysis) runUnit(stage string, i int, fn func(int)) {
	defer func() {
		if r := recover(); r != nil {
			a.fail(ScanError{
				Kind: ErrStagePanic, Stage: stage, Unit: i,
				Msg: fmt.Sprint(r), Stack: string(debug.Stack()),
			})
		}
	}()
	if h := a.opts.unitHook; h != nil {
		h(stage, i)
	}
	fn(i)
}

// guard runs one stage body with cancellation and panic isolation: a
// canceled context skips the stage (recording why), and a panic anywhere
// in the stage — including its work outside eachUnit — becomes a
// stage-level ErrStagePanic instead of crashing the scan.
func (a *analysis) guard(stage string, fn func()) {
	if err := a.scanCtx.Err(); err != nil {
		a.failCancel(stage, err)
		return
	}
	defer func() {
		if r := recover(); r != nil {
			a.fail(ScanError{
				Kind: ErrStagePanic, Stage: stage, Unit: -1,
				Msg: fmt.Sprint(r), Stack: string(debug.Stack()),
			})
		}
	}()
	fn()
}

// eachUnit runs fn(0..n-1) in index order. Cancellation is checked
// before every unit and a panicked unit is isolated by runUnit; either way
// the units that did complete keep their output, so partial results stay
// deterministic.
func (a *analysis) eachUnit(stage string, n int, fn func(int)) {
	for i := 0; i < n; i++ {
		if err := a.scanCtx.Err(); err != nil {
			a.failCancel(stage, err)
			return
		}
		a.runUnit(stage, i, fn)
	}
}

// unitFindings runs fn over n units through eachUnit, every unit
// appending to the scan's findings: unit order is the merge order.
func (a *analysis) unitFindings(stage string, n int, fn func(i int, f *findings)) {
	f := &a.scratch.found
	a.eachUnit(stage, n, func(i int) { fn(i, f) })
}

// collectAppMethods returns the body-bearing methods of the demanded app
// classes, sorted by key. Every consumer of a.methods (discovery, retry
// loops, guard-site scans, summary roots) provably produces the
// whole-program oracle's reports over this subset — see targeted.go for
// the closure rules and DESIGN.md §9 for the equivalence argument.
func (a *analysis) collectAppMethods() []*jimple.Method {
	x := a.index
	n := 0
	for _, slot := range a.demanded {
		lo, hi := x.ClassRecords(slot)
		n += int(hi - lo)
	}
	// Demanded classes in name order, records in declaration order: the
	// order the program's classes list their bodied methods. The keys
	// come from the call graph's key table.
	out := make([]*jimple.Method, 0, n)
	keys := make([]string, 0, n)
	for _, slot := range a.demanded {
		lo, hi := x.ClassRecords(slot)
		for i := lo; i < hi; i++ {
			m := x.Method(i)
			out = append(out, m)
			keys = append(keys, a.methodKey(m))
		}
	}
	sort.Sort(&methodKeySorter{methods: out, keys: keys})
	return out
}

// methodID returns m's call-graph method id, -1 when the graph does not
// hold m (never for a collected app method).
func (a *analysis) methodID(m *jimple.Method) int32 {
	if id, ok := a.cg.IDOf(m); ok {
		return id
	}
	return -1
}

// outEdges returns m's outgoing call-graph edges.
func (a *analysis) outEdges(m *jimple.Method) []callgraph.Edge {
	if id := a.methodID(m); id >= 0 {
		return a.cg.Out(id)
	}
	return nil
}

// reachesCall reports whether method id, or any body-bearing method it
// reaches in the call graph, invokes a callee that match accepts; false
// for id -1.
func (a *analysis) reachesCall(id int32, match func(jimple.Sig) bool) bool {
	if id < 0 {
		return false
	}
	found := false
	a.cg.Reach(id).Each(func(r int32) {
		m := a.cg.MethodOf(r)
		if found || m == nil {
			return
		}
		for _, s := range m.Body {
			if inv, ok := jimple.InvokeOf(s); ok && match(inv.Callee) {
				found = true
				return
			}
		}
	})
	return found
}

// isTarget reports whether callee is a registry target API (a request).
func (a *analysis) isTarget(callee jimple.Sig) bool {
	_, _, ok := a.reg.TargetOf(callee)
	return ok
}

// methodKey returns m's signature key, from the call graph's key table
// when the graph holds m, rendering it otherwise.
func (a *analysis) methodKey(m *jimple.Method) string {
	if id, ok := a.cg.IDOf(m); ok {
		return a.cg.Key(id)
	}
	return m.Sig.Key()
}

// connCheck returns the scan's connectivity-check must-precede analysis
// over the checkers' CFGs, building it on first use. Settings (unless
// GuardSensitiveConnCheck gives it its own) and stalechecks share it. A
// panic while building it is re-raised in every stage that asks, so both
// fail as they would each building their own.
func (a *analysis) connCheck() *dataflow.MustPrecede {
	if !a.connTried {
		a.connTried = true
		func() {
			defer func() { a.connPanic = recover() }()
			isCheck := func(_ *jimple.Method, _ int, inv jimple.InvokeExpr) bool {
				return android.IsConnectivityCheck(inv.Callee)
			}
			a.connMP = dataflow.NewMustPrecedeWith(a.ctx.flows, a.cg, isCheck, a.checkGraph)
		}()
	}
	if a.connPanic != nil {
		panic(a.connPanic)
	}
	return a.connMP
}

type methodKeySorter struct {
	methods []*jimple.Method
	keys    []string
}

func (s *methodKeySorter) Len() int { return len(s.methods) }

func (s *methodKeySorter) Swap(i, j int) {
	s.methods[i], s.methods[j] = s.methods[j], s.methods[i]
	s.keys[i], s.keys[j] = s.keys[j], s.keys[i]
}

func (s *methodKeySorter) Less(i, j int) bool { return s.keys[i] < s.keys[j] }

// configureSummaries installs the interprocedural summary producer on the
// analysis context. The computation itself runs on first consult — the
// pipeline does that eagerly under the "summaries" stage guard, so a panic
// inside the engine is isolated there, and a deadline hit mid-pass aborts
// cooperatively (the Cancel hook) and is recorded here; either way the
// scan survives with every consumer degraded to intraprocedural facts.
// For Options.unitHook the computation is unit 0 of the summaries stage.
func (a *analysis) configureSummaries() {
	a.ctx.configureSummaries(func() (*dataflow.SummarySet, error) {
		if h := a.opts.unitHook; h != nil {
			h("summaries", 0)
		}
		set, err := dataflow.ComputeSummaries(a.cg, a.methods, dataflow.SummaryConfig{
			IsValidityCheck: a.reg.IsRespCheck,
			CFG:             a.ctx.CFG,
			ReachDefs:       a.ctx.ReachDefs,
			ConstProp:       a.ctx.ConstProp,
			Cancel:          a.scanCtx.Err,
			// Roots restricts the computation to the demanded
			// sub-condensation.
			Roots:   a.roots,
			Scratch: a.ctx.flows,
		})
		if err != nil {
			a.failCancel("summaries", err)
			return nil, err
		}
		return set, nil
	})
}

// summaryResolver returns the call-site → callee-summaries resolver for m,
// or nil when the scan is intraprocedural (or summaries are unavailable
// after a degraded computation). Only EdgeCall edges resolve: async
// boundaries (executor posts, callback registrations) are not synchronous
// transfer and keep their dedicated modeling.
func (a *analysis) summaryResolver(m *jimple.Method) dataflow.SummaryResolver {
	if a.opts.Intraprocedural {
		return nil
	}
	set := a.ctx.Summaries()
	if set == nil {
		return nil
	}
	edges := a.outEdges(m)
	return func(site int) []*dataflow.TaintSummary {
		a.ctx.stats.SummaryRequests++
		var out []*dataflow.TaintSummary
		for _, e := range edges {
			if e.Site != site || e.Kind != callgraph.EdgeCall {
				continue
			}
			if sum := set.OfID(e.CalleeID); sum != nil {
				out = append(out, sum)
			}
		}
		return out
	}
}

// checkGraph returns the CFG the checkers should analyze m over: the
// feasibility-pruned graph by default, the raw graph under -intra.
func (a *analysis) checkGraph(m *jimple.Method) *cfg.Graph {
	if a.opts.Intraprocedural {
		return a.ctx.CFG(m)
	}
	return a.ctx.FeasibleCFG(m)
}

func argLocal(inv jimple.InvokeExpr, i int) (string, bool) {
	if i < 0 || i >= len(inv.Args) {
		return "", false
	}
	l, ok := inv.Args[i].(jimple.Local)
	if !ok {
		return "", false
	}
	return l.Name, true
}

// newReport assembles a report for a site with the call stack from its
// representative entry point, its frames written once, at exact size;
// findings.report locates it.
func (a *analysis) newReport(site *requestSite, cause report.Cause, msg string) report.Report {
	ctx := report.Context{
		Component:     site.component,
		Kind:          site.kind,
		UserInitiated: site.userInitiated,
		HTTPMethod:    site.httpMethod,
	}
	r := report.Report{
		Cause:         cause,
		Lib:           site.lib.Key,
		Message:       msg,
		Impacts:       report.Impacts(cause),
		Context:       ctx,
		FixSuggestion: report.Suggest(cause, ctx, site.lib),
	}
	if to := a.methodID(site.method); site.entry >= 0 && to >= 0 {
		if edges, ok := a.cg.CallPath(&a.scratch.path, site.entry, to); ok {
			r.CallStack = make([]report.Frame, len(edges)+1)
			for i, e := range edges {
				r.CallStack[i] = report.Frame{Method: a.cg.Key(e.CallerID), Site: e.Site}
			}
			r.CallStack[len(edges)] = report.Frame{Method: a.cg.Key(to), Site: -1}
		}
	}
	return r
}

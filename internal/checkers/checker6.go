package checkers

import (
	"fmt"

	"repro/internal/android"
	"repro/internal/callgraph"
	"repro/internal/dataflow"
	"repro/internal/jimple"
	"repro/internal/report"
)

// checkStaleChecks implements Checker 6 (stale connectivity check): a
// request site that IS guarded by a connectivity check (Checker 1 is
// satisfied) can still misbehave when the check's answer is stale by the
// time the request runs — mobile connectivity flaps on the order of
// seconds. Three staleness shapes are flagged, measured by the
// check-to-use distance analysis in internal/dataflow:
//
//   - loop: the request repeats inside a loop the check is outside of;
//     iterations after the first run against an unchecked network.
//   - wait: a blocking wait provably runs between check and request.
//   - callback-boundary: the check happened in another method and the
//     request's method is entered through an asynchronous dispatch
//     (AsyncTask, Handler post, Thread start); the callback executes at
//     an unbounded later time.
//
// The interprocedural must-precede analysis gates the whole checker:
// unguarded sites are Checker 1's territory, not staleness.
func (a *analysis) checkStaleChecks() {
	mp := a.connCheck()
	a.unitFindings("stalechecks", len(a.sites), func(i int, f *findings) {
		a.checkSiteStaleness(mp, a.sites[i], f)
	})
}

func (a *analysis) checkSiteStaleness(mp *dataflow.MustPrecede, site *requestSite, f *findings) {
	m := site.method
	if !mp.FactAt(a.methodID(m), site.stmt) {
		return // unguarded: Checker 1 reports the missing check
	}
	f.stats.GuardedSites++
	g := a.checkGraph(m)
	idom, loops := a.ctx.checkStructure(m, g)
	cd := dataflow.NewCheckDistance(g, idom, loops,
		func(_ int, inv jimple.InvokeExpr) bool {
			return android.IsWaitCall(inv.Callee)
		})

	// Dominating in-method checks: the guards the must-precede fact rests
	// on within this method.
	var domChecks []int
	for j, s := range m.Body {
		if inv, ok := jimple.InvokeOf(s); ok && android.IsConnectivityCheck(inv.Callee) {
			if j != site.stmt && cd.Dominates(j, site.stmt) {
				domChecks = append(domChecks, j)
			}
		}
	}

	if len(domChecks) == 0 {
		// Guarded entirely from outside this method. A synchronous caller
		// checks and immediately calls through; an asynchronous dispatch
		// defers this method to an unbounded later time, so the caller's
		// check is stale on arrival. ICC edges are excluded: component
		// launches are user-visible transitions, not deferred callbacks.
		if a.reachedViaAsyncDispatch(m) {
			a.reportStale(site, dataflow.StaleCallbackBoundary, f)
		}
		return
	}
	// The site is stale only when EVERY dominating check is stale — one
	// fresh check (e.g. a re-check after a sleep) vouches for the request.
	var reason dataflow.StaleReason
	for _, j := range domChecks {
		r, stale := cd.Stale(j, site.stmt)
		if !stale {
			return
		}
		reason = r
	}
	a.reportStale(site, reason, f)
}

// reachedViaAsyncDispatch reports whether any call-graph edge into m is a
// framework-mediated asynchronous dispatch.
func (a *analysis) reachedViaAsyncDispatch(m *jimple.Method) bool {
	if id := a.methodID(m); id >= 0 {
		for _, e := range a.cg.In(id) {
			if e.Kind == callgraph.EdgeAsync {
				return true
			}
		}
	}
	return false
}

func (a *analysis) reportStale(site *requestSite, reason dataflow.StaleReason, f *findings) {
	f.stats.StaleConnChecks++
	f.report(site.method, site.stmt, a.newReport(site, report.CauseStaleConnectivityCheck,
		fmt.Sprintf("Stale connectivity check before %s.%s(): %s",
			jimple.SimpleName(site.inv.Callee.Class), site.inv.Callee.Name,
			describeStaleness(reason))))
}

func describeStaleness(reason dataflow.StaleReason) string {
	switch reason {
	case dataflow.StaleLoop:
		return "the request repeats in a loop the check is outside of, so later iterations run against an unchecked network"
	case dataflow.StaleWait:
		return "a blocking wait runs between the check and the request, so connectivity may have changed meanwhile"
	case dataflow.StaleCallbackBoundary:
		return "the check runs before an asynchronous dispatch and the callback may execute after connectivity has changed"
	}
	return string(reason)
}

package checkers

import (
	"fmt"

	"repro/internal/android"
	"repro/internal/jimple"
	"repro/internal/report"
)

// checkOfflineState implements Checker 5 (offline-state handling): a
// network-state handler — a BroadcastReceiver.onReceive that inspects
// connectivity, or any ConnectivityManager.NetworkCallback
// implementation — must do something useful with the state change:
// retry the pending network work (reach a registry target API) or fall
// back to cached content (a SharedPreferences read). A handler that only
// observes the transition (logs, toasts) leaves the app stuck offline —
// the "eventual connectivity" bug class.
//
// Reachability is the call graph's full closure from the handler (sync
// calls and async dispatches alike: a handler that posts a retry
// runnable recovers), reusing the scan's shared graph.
func (a *analysis) checkOfflineState() {
	a.unitFindings("offlinestate", len(a.methods), func(i int, f *findings) {
		a.checkMethodOfflineState(a.methods[i], f)
	})
}

const onReceiveSubsig = "onReceive(android.content.Context,android.content.Intent)void"

// networkStateHandler classifies m as a handler the framework invokes on
// connectivity transitions. Receivers qualify only when their closure
// actually inspects connectivity (an ordinary broadcast receiver is not
// a network-state handler); NetworkCallback overrides qualify by
// registration semantics alone.
func (a *analysis) networkStateHandler(m *jimple.Method) bool {
	if m.Sig.HasSubSig(onReceiveSubsig) {
		return a.h.IsSubtype(m.Sig.Class, android.ClassBroadcastReceiver) &&
			a.closureChecksConnectivity(m)
	}
	for _, sub := range android.NetworkCallbackSubsigs {
		if m.Sig.HasSubSig(sub) {
			return a.h.IsSubtype(m.Sig.Class, android.ClassNetworkCallback)
		}
	}
	return false
}

// closureChecksConnectivity reports whether m or anything it reaches
// invokes a connectivity-check API.
func (a *analysis) closureChecksConnectivity(m *jimple.Method) bool {
	return a.reachesCall(a.methodID(m), android.IsConnectivityCheck)
}

// closureRecovers reports whether the handler's closure reaches a
// registry target API (a retried request) or a cache-fallback read.
func (a *analysis) closureRecovers(m *jimple.Method) bool {
	return a.reachesCall(a.methodID(m), func(callee jimple.Sig) bool {
		return a.isTarget(callee) || android.IsCacheFallback(callee)
	})
}

func (a *analysis) checkMethodOfflineState(m *jimple.Method, f *findings) {
	if !a.networkStateHandler(m) {
		return
	}
	f.stats.OfflineHandlers++
	if a.closureRecovers(m) {
		return
	}
	f.stats.OfflineNoRecovery++
	site := a.syntheticHandlerSite(m)
	f.report(site.method, site.stmt, a.newReport(site, report.CauseOfflineStateNoRecovery,
		fmt.Sprintf("Network-state handler %s.%s observes connectivity changes but never retries work or serves cached content",
			jimple.SimpleName(m.Sig.Class), m.Sig.Name)))
}

// syntheticHandlerSite fabricates a requestSite anchored at the handler's
// first direct connectivity check (or its first statement) so offline-
// state reports reuse the standard report plumbing. Handlers run
// framework-initiated: never user-initiated.
func (a *analysis) syntheticHandlerSite(m *jimple.Method) *requestSite {
	site := a.newSite(requestSite{
		method: m,
		stmt:   0,
		lib:    a.reg.Libraries()[0],
		entry:  a.methodID(m),
	})
	if len(site.lib.Targets) > 0 {
		site.target = &site.lib.Targets[0]
	}
	for i, s := range m.Body {
		if inv, ok := jimple.InvokeOf(s); ok && android.IsConnectivityCheck(inv.Callee) {
			site.stmt, site.inv = i, inv
			break
		}
	}
	site.component = jimple.OuterClass(m.Sig.Class)
	site.kind = android.KindOf(a.h, m.Sig.Class)
	if site.kind == android.KindOther {
		site.kind = android.KindReceiver
	}
	site.userInitiated = false
	return site
}

package checkers

import (
	"fmt"

	"repro/internal/android"
	"repro/internal/apimodel"
	"repro/internal/dataflow"
	"repro/internal/jimple"
	"repro/internal/report"
)

// notifScanDepth bounds the callee walk when scanning a callback scope for
// UI-alert calls (covers Handler.post(runnable)-style indirection).
const notifScanDepth = 2

// checkNotifications implements Pattern 3 (paper §4.4.3): user-initiated
// requests must surface failures in the UI. The checker maps each request
// to its error callback (library callback interfaces, the enclosing
// AsyncTask's onPostExecute, or — failing those — the requesting method
// itself), then scans that scope for calls on the five Android UI-alert
// classes. For Volley it additionally checks that the error callback
// inspects the typed error object.
func (a *analysis) checkNotifications() findings {
	return a.unitFindings("notifications", len(a.sites), func(i int, f *findings) {
		a.checkSiteNotifications(a.sites[i], f)
	})
}

func (a *analysis) checkSiteNotifications(site *requestSite, f *findings) {
	if !site.userInitiated {
		return
	}
	cbMethod, cbSpec, explicit := a.resolveErrorCallback(site)
	var scope []*jimple.Method
	if explicit {
		scope = a.scopeFrom(cbMethod)
		f.stats.ExplicitCallbackReqs++
	} else {
		scope = a.scopeFrom(site.method)
		if sibling := a.asyncTaskSibling(site.method); sibling != nil {
			scope = append(scope, a.scopeFrom(sibling)...)
		}
		f.stats.ImplicitCallbackReqs++
	}
	notified := scanForUIAlert(scope)
	if notified {
		if explicit {
			f.stats.ExplicitCallbackNotified++
		} else {
			f.stats.ImplicitCallbackNotified++
		}
	} else {
		f.stats.UserRequestsNoNotif++
		loc := site.method
		stmt := site.stmt
		if explicit {
			loc, stmt = cbMethod, 0
		}
		r := a.newReport(site, report.CauseNoFailureNotification,
			fmt.Sprintf("No failure notification for user-initiated %s request", site.lib.Name))
		r.Location = report.Loc{Method: loc.Sig, Stmt: stmt}
		f.report(r)
	}
	// Error-type usage: only callbacks that expose typed errors
	// (Volley) are checked, matching the paper.
	if explicit && cbSpec != nil && cbSpec.ExposesErrorTypes {
		f.stats.ErrorCallbacks++
		if a.errorObjectInspected(cbMethod, cbSpec.ErrorArg) {
			f.stats.ErrorTypeChecked++
		} else {
			r := a.newReport(site, report.CauseNoErrorTypeCheck,
				"Error callback ignores the error object's type; different errors need different handling")
			r.Location = report.Loc{Method: cbMethod.Sig, Stmt: 0}
			f.report(r)
		}
	}
}

// resolveErrorCallback finds the app method that handles this request's
// failure, per the library's callback annotations.
func (a *analysis) resolveErrorCallback(site *requestSite) (*jimple.Method, *apimodel.Callback, bool) {
	// Case 1: the target API takes an explicit handler argument.
	if site.target.HandlerArg >= 0 {
		if local, ok := argLocal(site.inv, site.target.HandlerArg); ok {
			typ := site.method.LocalType(local)
			if m, cb := a.callbackOn(site.lib, typ); m != nil {
				return m, cb, true
			}
		}
	}
	// Case 2 (Volley): the error listener is a constructor argument of the
	// request object passed to RequestQueue.add.
	if site.lib.Key == apimodel.LibVolley {
		if m, cb := a.volleyErrorListener(site); m != nil {
			return m, cb, true
		}
	}
	return nil, nil, false
}

// callbackOn resolves the error-callback method defined on (or inherited
// by) type typ for any of the library's callback interfaces.
func (a *analysis) callbackOn(lib *apimodel.Library, typ string) (*jimple.Method, *apimodel.Callback) {
	if typ == "" {
		return nil, nil
	}
	for i := range lib.Callbacks {
		cb := &lib.Callbacks[i]
		if !a.h.IsSubtype(typ, cb.Iface) {
			continue
		}
		sig, err := jimple.ParseSigKey(cb.Iface + "." + cb.ErrorSubsig)
		if err != nil {
			continue
		}
		if m := a.h.LookupMethod(typ, sig.SubSigKey()); m != nil && m.HasBody() {
			return m, cb
		}
	}
	return nil, nil
}

// volleyErrorListener chases the Volley request object back to its
// constructor and inspects the constructor arguments for an ErrorListener
// implementation.
func (a *analysis) volleyErrorListener(site *requestSite) (*jimple.Method, *apimodel.Callback) {
	reqLocal, ok := argLocal(site.inv, 0)
	if !ok {
		return nil, nil
	}
	m := site.method
	rd := a.ctx.ReachDefs(m)
	for _, alloc := range dataflow.AllocSitesOf(rd, site.stmt, reqLocal) {
		local := rd.DefOfStmt(alloc)
		for j := alloc + 1; j < len(m.Body); j++ {
			inv, okInv := jimple.InvokeOf(m.Body[j])
			if !okInv || inv.Kind != jimple.InvokeSpecial || inv.Base != local || inv.Callee.Name != "<init>" {
				continue
			}
			for _, arg := range inv.Args {
				l, isLocal := arg.(jimple.Local)
				if !isLocal {
					continue
				}
				if cbM, cb := a.callbackOn(site.lib, m.LocalType(l.Name)); cbM != nil {
					return cbM, cb
				}
			}
			break
		}
	}
	return nil, nil
}

// asyncTaskSibling returns the onPostExecute of the AsyncTask class whose
// doInBackground contains the request, if applicable: that is where
// synchronous-library users surface results to the UI thread.
func (a *analysis) asyncTaskSibling(m *jimple.Method) *jimple.Method {
	if !m.Sig.HasSubSig("doInBackground()void") {
		return nil
	}
	if !a.h.IsSubtype(m.Sig.Class, android.ClassAsyncTask) {
		return nil
	}
	if post := a.h.DeclaredMethod(m.Sig.Class, "onPostExecute()void"); post != nil && post.HasBody() {
		return post
	}
	return nil
}

// scopeFrom returns root plus the app methods reachable from it within
// notifScanDepth call-graph hops (async edges included, so Handler.post
// and runOnUiThread indirection is covered).
func (a *analysis) scopeFrom(root *jimple.Method) []*jimple.Method {
	type item struct {
		id    int32
		depth int
	}
	out := []*jimple.Method{root}
	rootID := a.methodID(root)
	if rootID < 0 {
		return out
	}
	seen := a.cg.NewBitset()
	seen.Add(rootID)
	queue := []item{{id: rootID}}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		if cur.depth >= notifScanDepth {
			continue
		}
		for _, e := range a.cg.Out(cur.id) {
			if !seen.Add(e.CalleeID) {
				continue
			}
			// Only walk into the app's own code.
			if cls := a.app.Program.Class(e.Callee.Class); cls != nil {
				if m := a.cg.MethodOf(e.CalleeID); m != nil {
					out = append(out, m)
					queue = append(queue, item{id: e.CalleeID, depth: cur.depth + 1})
				}
			}
		}
	}
	return out
}

// scanForUIAlert reports whether any method in scope calls a UI-alert
// class method (AlertDialog, DialogFragment, Toast, TextView, ImageView).
func scanForUIAlert(scope []*jimple.Method) bool {
	for _, m := range scope {
		for _, s := range m.Body {
			if inv, ok := jimple.InvokeOf(s); ok && android.IsUIAlertCall(inv.Callee) {
				return true
			}
		}
	}
	return false
}

// errorObjectInspected reports whether the error callback actually
// consults its error parameter: calling a method on it, testing its type,
// or passing it into code that does — a bare null comparison does not
// count. Passing the error along used to count unconditionally; with
// summaries available, a hand-off to the app's own code counts only when
// some callee's summary says the bound parameter is consulted, so a
// helper that merely logs "request failed" and drops the error no longer
// masks the missing type check. Unsummarized (framework) callees keep the
// conservative answer.
func (a *analysis) errorObjectInspected(cb *jimple.Method, errorArg int) bool {
	// Find the local bound to the error parameter (identity assignment).
	var errLocal string
	for _, s := range cb.Body {
		if asg, ok := s.(*jimple.AssignStmt); ok {
			if p, isParam := asg.RHS.(jimple.ParamRef); isParam && p.Index == errorArg {
				if l, isLocal := asg.LHS.(jimple.Local); isLocal {
					errLocal = l.Name
				}
			}
		}
	}
	if errLocal == "" {
		return false
	}
	resolve := a.summaryResolver(cb)
	for i, s := range cb.Body {
		inv, isInv := jimple.InvokeOf(s)
		if isInv {
			if inv.Base == errLocal {
				return true
			}
			passed := false
			for _, arg := range inv.Args {
				if l, isLocal := arg.(jimple.Local); isLocal && l.Name == errLocal {
					passed = true
				}
			}
			if passed {
				var sums []*dataflow.TaintSummary
				if resolve != nil {
					sums = resolve(i)
				}
				if len(sums) == 0 {
					return true // unknown code may consult the error
				}
				for _, sum := range sums {
					for _, t := range dataflow.BoundTokens(inv, sum, func(name string) bool { return name == errLocal }) {
						if sum.UsesToken(t) {
							return true
						}
					}
				}
			}
		}
		if asg, ok := s.(*jimple.AssignStmt); ok {
			if io, isIO := asg.RHS.(jimple.InstanceOfExpr); isIO {
				if l, isLocal := io.V.(jimple.Local); isLocal && l.Name == errLocal {
					return true
				}
			}
		}
	}
	return false
}

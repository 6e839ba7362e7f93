package checkers

import (
	"fmt"

	"repro/internal/apimodel"
	"repro/internal/cfg"
	"repro/internal/dataflow"
	"repro/internal/jimple"
	"repro/internal/report"
)

// checkResponses implements Pattern 4 (paper §4.4.4): taint the response
// object from its definition (the return value of a synchronous request,
// or the parameter of a success callback) and raise an alarm when a path
// exists from the definition to a use with no validity check on it. A
// validity check is either a response-checking API call (isSuccessful /
// isSuccess) or an explicit null test on an alias of the response.
func (a *analysis) checkResponses() findings {
	// Synchronous targets: response = LHS at the request site.
	sites := a.unitFindings("responses", len(a.sites), func(i int, f *findings) {
		a.checkSiteResponse(a.sites[i], f)
	})
	// Asynchronous success callbacks: the response arrives as a parameter.
	cb := a.checkCallbackResponses()
	sites.reports = append(sites.reports, cb.reports...)
	sites.stats.add(&cb.stats)
	return sites
}

func (a *analysis) checkSiteResponse(site *requestSite, f *findings) {
	if !site.lib.HasRespCheckAPIs() || !site.target.ReturnsResponse {
		return
	}
	f.stats.RespRequests++
	asg, ok := site.method.Body[site.stmt].(*jimple.AssignStmt)
	if !ok {
		return // response discarded: nothing to use, nothing to check
	}
	respLocal, ok := asg.LHS.(jimple.Local)
	if !ok {
		return
	}
	if useStmt, missing := a.findUncheckedUse(site.method, site.stmt, respLocal.Name); missing {
		f.stats.RespMissCheck++
		r := a.newReport(site, report.CauseNoResponseCheck,
			fmt.Sprintf("Response of %s.%s() used without a validity check",
				jimple.SimpleName(site.inv.Callee.Class), site.inv.Callee.Name))
		r.Location = report.Loc{Method: site.method.Sig, Stmt: useStmt}
		f.report(r)
	}
}

// successCallback is one library success callback whose parameter type
// has response-check APIs: the interface an app class implements and the
// subsignature of its success method.
type successCallback struct {
	lib    *apimodel.Library
	iface  string
	subsig string
}

// successCallbacksKey keys successCallbacks in apimodel.Registry.Memo.
type successCallbacksKey struct{}

// successCallbacks returns reg's success callbacks in registration order,
// their signatures parsed once per registry.
func successCallbacks(reg *apimodel.Registry) []successCallback {
	return reg.Memo(successCallbacksKey{}, func() any {
		var out []successCallback
		for _, lib := range reg.Libraries() {
			if !lib.HasRespCheckAPIs() {
				continue
			}
			for i := range lib.Callbacks {
				cb := &lib.Callbacks[i]
				sig, err := jimple.ParseSigKey(cb.Iface + "." + cb.SuccessSubsig)
				if err != nil {
					continue
				}
				out = append(out, successCallback{lib: lib, iface: cb.Iface, subsig: sig.SubSigKey()})
			}
		}
		return out
	}).([]successCallback)
}

// checkCallbackResponses scans app classes implementing a library success
// callback whose parameter type has response-check APIs (OkHttp's
// Callback.onResponse). Only demanded classes hold bodies, so one walk
// over them (their slots ascend in class-name order) finds every
// implementation; the work list is grouped per callback so unit order
// matches the historical (library, callback, class) scan order.
func (a *analysis) checkCallbackResponses() findings {
	type cbWork struct {
		m   *jimple.Method
		lib *apimodel.Library
	}
	cbs := successCallbacks(a.reg)
	perCB := make([][]cbWork, len(cbs))
	for _, slot := range a.demanded {
		cls := a.app.Program.Class(a.index.ClassName(slot))
		for i, cb := range cbs {
			if !a.h.IsSubtype(cls.Name, cb.iface) {
				continue
			}
			m := cls.Method(cb.subsig)
			if m == nil || !m.HasBody() {
				continue
			}
			perCB[i] = append(perCB[i], cbWork{m: m, lib: cb.lib})
		}
	}
	var work []cbWork
	for _, w := range perCB {
		work = append(work, w...)
	}
	return a.unitFindings("responses", len(work), func(i int, f *findings) {
		a.checkCallbackResponseBody(work[i].m, work[i].lib, f)
	})
}

func (a *analysis) checkCallbackResponseBody(m *jimple.Method, lib *apimodel.Library, f *findings) {
	// Find the identity assignment binding the response parameter.
	for i, s := range m.Body {
		asg, ok := s.(*jimple.AssignStmt)
		if !ok {
			continue
		}
		p, isParam := asg.RHS.(jimple.ParamRef)
		if !isParam || !isResponseType(p.Type, lib) {
			continue
		}
		respLocal, isLocal := asg.LHS.(jimple.Local)
		if !isLocal {
			continue
		}
		f.stats.RespRequests++
		if useStmt, missing := a.findUncheckedUse(m, i, respLocal.Name); missing {
			f.stats.RespMissCheck++
			ctx := report.Context{Component: jimple.OuterClass(m.Sig.Class), UserInitiated: true}
			r := &report.Report{
				Cause:         report.CauseNoResponseCheck,
				Lib:           lib.Key,
				Message:       "Callback response used without a validity check",
				Location:      report.Loc{Method: m.Sig, Stmt: useStmt},
				Impacts:       report.Impacts(report.CauseNoResponseCheck),
				Context:       ctx,
				FixSuggestion: report.Suggest(report.CauseNoResponseCheck, ctx, lib),
			}
			f.report(r)
		}
		return
	}
}

func isResponseType(t string, lib *apimodel.Library) bool {
	for _, rc := range lib.RespChecks {
		if rc.Sig.Class == t {
			return true
		}
	}
	return false
}

// findUncheckedUse taints the response local from defStmt forward and
// looks for the first statement that reads the response's payload while
// the "validated" must-fact is still false on some path. It returns the
// offending use statement.
//
// In interprocedural mode the analysis runs over the feasibility-pruned
// CFG (uses witnessed only on statically-false branches vanish), the
// taint flows through callee summaries, a call into a helper that
// validates the response on all its paths establishes the check, and a
// helper that reads the payload without checking (UncheckedUse on the
// bound parameter) counts as the use — §4.4.4's helper-method flows.
func (a *analysis) findUncheckedUse(m *jimple.Method, defStmt int, local string) (int, bool) {
	g := a.checkGraph(m)
	resolve := a.summaryResolver(m)
	opts := dataflow.DefaultTaintOptions()
	opts.CalleeSummaries = resolve
	taint := dataflow.ForwardTaint(g, map[int][]string{defStmt: {local}}, opts)
	aliasAt := func(stmt int, name string) bool {
		return name == local && stmt == defStmt || taint.TaintedAt(stmt, name)
	}
	checked := a.mustCheckedFacts(g, m, aliasAt, resolve)
	for i, s := range m.Body {
		if i <= defStmt {
			continue
		}
		inv, ok := jimple.InvokeOf(s)
		if !ok || checked[i] {
			continue
		}
		var sums []*dataflow.TaintSummary
		if resolve != nil {
			sums = resolve(i)
		}
		if inv.Base != "" && aliasAt(i, inv.Base) && !a.reg.IsRespCheck(inv.Callee) {
			if len(sums) == 0 {
				// Any unsummarized call on the response (getBody,
				// getEntity, read, …) reads the payload and counts as a
				// use.
				return i, true
			}
			// A summarized (app) callee is judged by its summary below:
			// a helper that never touches the payload is not a use.
		}
		for _, sum := range sums {
			for _, t := range dataflow.BoundTokens(inv, sum, func(name string) bool { return aliasAt(i, name) }) {
				if sum.UncheckedUse&(1<<uint(t)) != 0 {
					return i, true
				}
			}
		}
	}
	return 0, false
}

// mustCheckedFacts runs a forward must-analysis: fact[i] is true when
// every path reaching statement i has validated the response (null test
// or response-check API on an alias — or, with summaries, a call into a
// helper whose summary validates the bound response on all its paths).
func (a *analysis) mustCheckedFacts(g *cfg.Graph, m *jimple.Method, aliasAt func(int, string) bool, resolve dataflow.SummaryResolver) []bool {
	n := g.NumNodes()
	// Optimistic initialization: a must-analysis starts at TOP (true) and
	// lowers to the greatest fixpoint; starting at false would be sticky
	// around loop back edges.
	in := make([]bool, n)
	out := make([]bool, n)
	for i := range in {
		in[i] = true
		out[i] = true
	}
	gen := func(i int) bool {
		if i >= len(m.Body) {
			return false
		}
		s := m.Body[i]
		if inv, ok := jimple.InvokeOf(s); ok {
			if inv.Base != "" && aliasAt(i, inv.Base) && a.reg.IsRespCheck(inv.Callee) {
				return true
			}
			if resolve != nil {
				// A call validating through every summarized callee (each
				// checks some bound alias token on all its paths)
				// establishes the fact here too.
				if sums := resolve(i); len(sums) > 0 {
					all := true
					for _, sum := range sums {
						validated := false
						for _, t := range dataflow.BoundTokens(inv, sum, func(name string) bool { return aliasAt(i, name) }) {
							if sum.ValidatedAllPaths&(1<<uint(t)) != 0 {
								validated = true
								break
							}
						}
						if !validated {
							all = false
							break
						}
					}
					if all {
						return true
					}
				}
			}
		}
		if iff, ok := s.(*jimple.IfStmt); ok {
			if isNullTestOnAlias(iff.Cond, i, aliasAt) {
				return true
			}
		}
		return false
	}
	for changed := true; changed; {
		changed = false
		for u := 0; u < n; u++ {
			newIn := u != 0 // meet identity; entry starts unchecked
			for _, p := range g.Preds(u) {
				newIn = newIn && out[p]
			}
			if u == 0 {
				newIn = false
			}
			newOut := newIn || gen(u)
			if newIn != in[u] || newOut != out[u] {
				in[u], out[u] = newIn, newOut
				changed = true
			}
		}
	}
	return in
}

func isNullTestOnAlias(cond jimple.Value, stmt int, aliasAt func(int, string) bool) bool {
	be, ok := cond.(jimple.BinExpr)
	if !ok || (be.Op != jimple.OpEQ && be.Op != jimple.OpNE) {
		return false
	}
	lLocal, lIsLocal := be.L.(jimple.Local)
	rLocal, rIsLocal := be.R.(jimple.Local)
	_, lIsNull := be.L.(jimple.NullConst)
	_, rIsNull := be.R.(jimple.NullConst)
	if lIsLocal && rIsNull {
		return aliasAt(stmt, lLocal.Name)
	}
	if rIsLocal && lIsNull {
		return aliasAt(stmt, rLocal.Name)
	}
	return false
}

package checkers

import (
	"repro/internal/android"
	"repro/internal/apimodel"
	"repro/internal/callgraph"
	"repro/internal/dataflow"
	"repro/internal/jimple"
)

// discoverSites performs the reachability analysis of §4.4: it finds every
// target-API call site, determines which entry points reach it, and
// resolves its context (user vs. background, HTTP method) and config-API
// call set. Methods are scanned in sorted-key order, which is the site
// order.
func (a *analysis) discoverSites() findings {
	var f findings
	a.eachUnit("discover", len(a.methods), func(i int) {
		for _, site := range a.discoverMethodSites(a.methods[i]) {
			a.sites = append(a.sites, site)
			f.stats.Requests++
			if site.userInitiated {
				f.stats.UserRequests++
			}
			if site.lib.HasRetryAPIs {
				f.stats.RetryEvalRequests++
			}
		}
	})
	return f
}

// discoverMethodSites finds and resolves the request sites of one method.
func (a *analysis) discoverMethodSites(m *jimple.Method) []*requestSite {
	var out []*requestSite
	mID := a.methodID(m)
	var entries []callgraph.Entry
	entriesResolved := false
	for i, s := range m.Body {
		inv, ok := jimple.InvokeOf(s)
		if !ok {
			continue
		}
		lib, target, isTarget := a.reg.TargetOf(inv.Callee)
		if !isTarget {
			continue
		}
		if !entriesResolved {
			entries = a.ctx.EntriesReaching(mID)
			entriesResolved = true
		}
		if len(entries) == 0 {
			// Dead code: the paper's tool only reports requests
			// reachable from an entry point.
			continue
		}
		site := &requestSite{
			method: m, stmt: i, inv: inv, lib: lib, target: target, entry: -1,
		}
		a.resolveContext(site, entries)
		a.resolveConfig(site)
		out = append(out, site)
	}
	return out
}

// resolveContext decides user vs. background per §4.4.2: entry points in
// Activity classes are user-initiated; Service entries are background.
// A request reachable from both is treated as user-initiated (the stricter
// notification obligations apply).
func (a *analysis) resolveContext(site *requestSite, entries []callgraph.Entry) {
	site.kind = android.KindOther
	for _, e := range entries {
		switch e.Kind {
		case android.KindActivity:
			site.userInitiated = true
			site.kind = android.KindActivity
			site.component = e.Component
			site.entry = a.methodID(e.Method)
		case android.KindService:
			if !site.userInitiated {
				site.kind = android.KindService
				site.component = e.Component
				site.entry = a.methodID(e.Method)
			}
		default:
			if site.component == "" {
				site.kind = e.Kind
				site.component = e.Component
				site.entry = a.methodID(e.Method)
			}
		}
	}
	site.httpMethod = site.target.HTTPMethod
	if site.lib.Key == apimodel.LibVolley {
		site.httpMethod = a.resolveVolleyMethod(site)
	}
}

// resolveVolleyMethod recovers the HTTP method of a Volley request from
// the Request constructor's first argument (Method.GET = 0, POST = 1).
func (a *analysis) resolveVolleyMethod(site *requestSite) string {
	reqLocal, ok := argLocal(site.inv, 0)
	if !ok {
		return ""
	}
	m := site.method
	rd := a.ctx.ReachDefs(m)
	cp := a.ctx.ConstProp(m)
	for _, alloc := range dataflow.AllocSitesOf(rd, site.stmt, reqLocal) {
		local := rd.DefOfStmt(alloc)
		// Find the constructor invocation on the allocated local.
		for j := alloc + 1; j < len(m.Body); j++ {
			inv, ok := jimple.InvokeOf(m.Body[j])
			if !ok || inv.Kind != jimple.InvokeSpecial || inv.Base != local || inv.Callee.Name != "<init>" {
				continue
			}
			if len(inv.Args) == 0 {
				break
			}
			if v, ok := cp.ArgInt(j, inv, 0); ok {
				if v == apimodel.VolleyMethodPost {
					return "POST"
				}
				return "GET"
			}
			break
		}
	}
	return ""
}

// resolveConfig runs the taint step of §4.4.1: locate the config object
// (client or request), collect every call on its aliases, and record which
// timeout/retry config APIs were used with what arguments.
func (a *analysis) resolveConfig(site *requestSite) {
	m := site.method
	g := a.ctx.CFG(m)
	rd := a.ctx.ReachDefs(m)
	if a.opts.DisableTaintConfigDiscovery {
		// Ablation: accept any config call anywhere in the method.
		for i, s := range m.Body {
			if inv, ok := jimple.InvokeOf(s); ok {
				if _, _, isCfg := a.reg.ConfigOf(inv.Callee); isCfg {
					site.configCalls = append(site.configCalls, dataflow.ObjectCall{Stmt: i, Callee: inv.Callee})
				}
			}
		}
	} else {
		var obj string
		if site.target.ConfigObjArg < 0 {
			obj = site.inv.Base
		} else if l, ok := argLocal(site.inv, site.target.ConfigObjArg); ok {
			obj = l
		}
		site.configObj = obj
		if obj != "" {
			// Interprocedural mode also sees config calls the object's
			// aliases receive inside helper methods (the client configured
			// in a helper, or built by a factory) — §4.4.1's cross-method
			// alias tracking via the callee summaries.
			site.configCalls = dataflow.CallsOnObjectInter(g, rd, site.stmt, obj, a.summaryResolver(m))
		}
	}
	cp := a.ctx.ConstProp(m)
	defaults := site.lib.Defaults
	site.retryCount, site.retryKnown = defaults.Retries, true
	for _, oc := range site.configCalls {
		_, cfgAPI, ok := a.reg.ConfigOf(oc.Callee)
		if !ok {
			continue
		}
		switch cfgAPI.Kind {
		case apimodel.ConfigTimeout:
			site.timeoutSet = true
		case apimodel.ConfigRetry:
			site.retrySet = true
			if cfgAPI.CountArg >= 0 {
				if oc.Args != nil {
					// A summary-discovered call: the count was folded in
					// the helper's own constant-propagation context.
					if cfgAPI.CountArg < len(oc.Args) && oc.Args[cfgAPI.CountArg].Known {
						site.retryCount, site.retryKnown = int(oc.Args[cfgAPI.CountArg].V), true
						continue
					}
					site.retryKnown = false
					continue
				}
				if inv, okInv := jimple.InvokeOf(m.Body[oc.Stmt]); okInv {
					if v, okV := cp.ArgInt(oc.Stmt, inv, cfgAPI.CountArg); okV {
						site.retryCount, site.retryKnown = int(v), true
						continue
					}
				}
				site.retryKnown = false
			} else {
				// A policy-object API: retries configured but the count
				// is opaque.
				site.retryKnown = false
			}
		}
	}
}

package checkers

import (
	"fmt"

	"repro/internal/android"
	"repro/internal/dataflow"
	"repro/internal/jimple"
	"repro/internal/report"
)

// checkRequestSettings implements Pattern 1 (paper §4.4.1): for every
// request site it verifies (a) a connectivity-check API is invoked on
// every path from every entry point to the request, and (b) the request's
// config object had its timeout and retry config APIs invoked.
//
// The interprocedural must-precede analysis is built once per stage (it
// shares the scan's cached CFGs); sites are then checked one by one.
func (a *analysis) checkRequestSettings() findings {
	// The must-precede analysis runs over the feasibility-pruned CFGs (see
	// AnalysisContext.FeasibleCFG): a connectivity check reachable only
	// through a statically-false branch no longer blocks the fact, and a
	// request only reachable through one no longer demands it. The plain
	// analysis is the one stalechecks reads too, so it is built once.
	var mp *dataflow.MustPrecede
	if a.opts.GuardSensitiveConnCheck {
		guarding := a.guardingCheckSites()
		isCheck := func(m *jimple.Method, stmt int, inv jimple.InvokeExpr) bool {
			return android.IsConnectivityCheck(inv.Callee) && guarding[m][stmt]
		}
		mp = dataflow.NewMustPrecedeWith(a.cg, isCheck, a.checkGraph)
	} else {
		mp = a.connCheck()
	}
	return a.unitFindings("settings", len(a.sites), func(i int, f *findings) {
		a.checkSiteSettings(mp, a.sites[i], f)
	})
}

// checkSiteSettings emits one site's setting warnings in the fixed order
// conn-check, timeout, retry-config.
func (a *analysis) checkSiteSettings(mp *dataflow.MustPrecede, site *requestSite, f *findings) {
	if !mp.FactAt(a.methodID(site.method), site.stmt) {
		f.stats.MissConnCheck++
		f.report(a.newReport(site, report.CauseNoConnectivityCheck,
			fmt.Sprintf("Missing network connectivity check before %s.%s()",
				jimple.SimpleName(site.inv.Callee.Class), site.inv.Callee.Name)))
	}
	if site.lib.HasTimeoutAPIs() && !site.timeoutSet {
		f.stats.MissTimeout++
		f.report(a.newReport(site, report.CauseNoTimeout,
			fmt.Sprintf("No timeout config API invoked for %s request (library default: %s)",
				site.lib.Name, describeTimeout(site.lib.Defaults.TimeoutMs))))
	}
	if site.lib.HasRetryAPIs && !site.retrySet {
		f.stats.MissRetryConfig++
		f.report(a.newReport(site, report.CauseNoRetryConfig,
			fmt.Sprintf("No retry config API invoked for %s request (library default: %d retries)",
				site.lib.Name, site.lib.Defaults.Retries)))
	}
}

// guardingCheckSites finds, per app method, the connectivity-check call
// sites whose result flows into a branch condition — the "check actually
// guards something" refinement of GuardSensitiveConnCheck. The check's
// result local is tainted forward; any if statement whose condition reads
// a tainted local marks the check as guarding.
func (a *analysis) guardingCheckSites() map[*jimple.Method]map[int]bool {
	out := make(map[*jimple.Method]map[int]bool)
	a.eachUnit("settings", len(a.methods), func(mi int) {
		m := a.methods[mi]
		var sites map[int]bool
		g := a.ctx.CFG(m)
		for i, s := range m.Body {
			inv, ok := jimple.InvokeOf(s)
			if !ok || !android.IsConnectivityCheck(inv.Callee) {
				continue
			}
			asg, isAsg := s.(*jimple.AssignStmt)
			if !isAsg {
				continue // result discarded: cannot guard anything
			}
			resLocal, isLocal := asg.LHS.(jimple.Local)
			if !isLocal {
				continue
			}
			taint := dataflow.ForwardTaint(g, map[int][]string{i: {resLocal.Name}},
				dataflow.DefaultTaintOptions())
			for j, t := range m.Body {
				iff, isIf := t.(*jimple.IfStmt)
				if !isIf {
					continue
				}
				var uses []string
				uses = jimple.UsedLocals(uses, iff.Cond)
				for _, u := range uses {
					if taint.TaintedAt(j, u) {
						if sites == nil {
							sites = make(map[int]bool)
						}
						sites[i] = true
					}
				}
			}
		}
		if sites != nil {
			out[m] = sites
		}
	})
	return out
}

func describeTimeout(ms int) string {
	if ms == 0 {
		return "none — a blocking connect can take minutes to fail"
	}
	return fmt.Sprintf("%d ms", ms)
}

package checkers

import (
	"repro/internal/android"
	"repro/internal/cfg"
	"repro/internal/jimple"
	"repro/internal/report"
)

// checkRetryLoops implements §4.5: it identifies customized retry logic —
// natural loops whose exit depends on the success of a network request —
// and flags the aggressive ones (no backoff between attempts, the
// Telegram pattern of Figure 2). Methods are analyzed one by one,
// reusing the scan's cached CFGs, loop sets, and slicers.
//
// A loop is a retry loop when it (transitively) performs a network request
// and either:
//
//	(a) it has an unconditional exit (return/throw inside the loop) that is
//	    unreachable from the statements of a catch block inside the loop
//	    (Figure 6(b): only a successful request reaches the exit), or
//	(b) a conditional exit's condition is data/control dependent on
//	    statements of a catch block (Figure 6(c)/(d)), established by
//	    backward slicing.
func (a *analysis) checkRetryLoops() {
	a.unitFindings("retryloops", len(a.methods), func(i int, f *findings) {
		a.checkMethodRetryLoops(a.methods[i], f)
	})
}

func (a *analysis) checkMethodRetryLoops(m *jimple.Method, f *findings) {
	loops := a.ctx.Loops(m)
	if len(loops) == 0 {
		return
	}
	g := a.ctx.CFG(m)
	for _, loop := range loops {
		if !a.loopPerformsRequest(m, loop) {
			continue
		}
		if !a.opts.DisableRetrySlicing && !a.isRetryLoop(m, g, loop) {
			continue
		}
		f.stats.RetryLoops++
		if !a.loopHasBackoff(m, loop) {
			f.stats.AggressiveRetryLoops++
			site := a.syntheticLoopSite(m, loop)
			f.report(site.method, site.stmt, a.newReport(site, report.CauseAggressiveRetryLoop,
				"Customized retry loop reconnects without backing off; repeated failures burn CPU and battery"))
		} else if !a.loopBackoffOnFailurePath(m, loop) {
			// Checker 8 (retry-storm): the loop does delay somewhere, but
			// not on the failure path — failed attempts still reconnect
			// immediately.
			f.stats.RetryStorms++
			site := a.syntheticLoopSite(m, loop)
			f.report(site.method, site.stmt, a.newReport(site, report.CauseRetryStorm,
				"Retry loop backs off only on the success path; failed attempts reconnect immediately, storming the server"))
		}
	}
}

// loopPerformsRequest reports whether any statement of the loop invokes a
// target API directly or calls into app code that reaches one (the paper
// recursively parses callers; we equivalently walk callees).
func (a *analysis) loopPerformsRequest(m *jimple.Method, loop *cfg.Loop) bool {
	for _, i := range loop.Body {
		if i >= len(m.Body) {
			continue
		}
		inv, ok := jimple.InvokeOf(m.Body[i])
		if !ok {
			continue
		}
		if _, _, isTarget := a.reg.TargetOf(inv.Callee); isTarget {
			return true
		}
		// Walk synchronous callees.
		for _, e := range a.outEdges(m) {
			if e.Site != i {
				continue
			}
			if a.reachesCall(e.CalleeID, a.isTarget) {
				return true
			}
		}
	}
	return false
}

// catchStmtsInLoop returns the statements of catch blocks whose handler
// lies inside the loop: the handler statement plus everything it
// dominates within the loop.
func catchStmtsInLoop(m *jimple.Method, idom []int, loop *cfg.Loop) map[int]bool {
	out := make(map[int]bool)
	for _, t := range m.Traps {
		if !loop.Contains(t.Handler) {
			continue
		}
		for _, i := range loop.Body {
			if i < len(m.Body) && cfg.Dominates(idom, t.Handler, i) {
				out[i] = true
			}
		}
	}
	return out
}

// isRetryLoop applies the two §4.5 exit-condition criteria.
func (a *analysis) isRetryLoop(m *jimple.Method, g *cfg.Graph, loop *cfg.Loop) bool {
	catch := catchStmtsInLoop(m, a.ctx.Dominators(m), loop)
	if len(catch) == 0 {
		return false
	}
	reachFromCatch := reachableFrom(g, catch)
	for _, i := range loop.Body {
		if i >= len(m.Body) {
			continue
		}
		switch s := m.Body[i].(type) {
		case *jimple.ReturnStmt, *jimple.ThrowStmt:
			// Criterion (a): an unconditional exit unreachable from the
			// catch block — only request success gets here.
			if !reachFromCatch[i] {
				return true
			}
		case *jimple.IfStmt:
			// Criterion (b): a conditional exit whose condition depends on
			// the catch block.
			exits := false
			if !loop.Contains(s.Target) || (i+1 < g.NumNodes() && !loop.Contains(i+1)) {
				exits = true
			}
			if exits && a.ctx.Slicer(m).DependsOnAny(i, catch) {
				return true
			}
		}
	}
	return false
}

// reachableFrom computes the statement set reachable from seeds along CFG
// edges (excluding the seeds themselves unless re-reached).
func reachableFrom(g *cfg.Graph, seeds map[int]bool) map[int]bool {
	seen := make(map[int]bool)
	var stack []int
	for s := range seeds {
		stack = append(stack, s)
	}
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, v := range g.Succs(u) {
			if !seen[v] {
				seen[v] = true
				stack = append(stack, v)
			}
		}
	}
	return seen
}

// isBackoffSig reports whether sig is a delaying call: Thread.sleep,
// Handler.postDelayed, or a Timer schedule.
func isBackoffSig(sig jimple.Sig) bool {
	switch {
	case sig.Class == android.ClassThread && sig.Name == "sleep":
		return true
	case sig.Class == android.ClassHandler && sig.Name == "postDelayed":
		return true
	case sig.Class == android.ClassTimer:
		return true
	}
	return false
}

// stmtBacksOff reports whether the statement at i in m is a backoff call,
// directly or through a direct callee's body (one level, matching
// loopHasBackoff's depth).
func (a *analysis) stmtBacksOff(m *jimple.Method, i int) bool {
	if i >= len(m.Body) {
		return false
	}
	inv, ok := jimple.InvokeOf(m.Body[i])
	if !ok {
		return false
	}
	if isBackoffSig(inv.Callee) {
		return true
	}
	for _, e := range a.outEdges(m) {
		if e.Site != i {
			continue
		}
		if callee := a.cg.MethodOf(e.CalleeID); callee != nil {
			for _, cs := range callee.Body {
				if cinv, okc := jimple.InvokeOf(cs); okc && isBackoffSig(cinv.Callee) {
					return true
				}
			}
		}
	}
	return false
}

// loopHasBackoff reports whether the loop (or its direct callees) delays
// between attempts: Thread.sleep, Handler.postDelayed, or a Timer
// schedule.
func (a *analysis) loopHasBackoff(m *jimple.Method, loop *cfg.Loop) bool {
	for _, i := range loop.Body {
		if a.stmtBacksOff(m, i) {
			return true
		}
	}
	return false
}

// loopBackoffOnFailurePath reports whether some backoff call sits on the
// loop's failure path — inside an in-loop catch-block region (the same
// region catchStmtsInLoop gives the retry-loop classifier). A loop whose
// only delay runs on the success path still reconnects immediately after
// every failure: the retry-storm pattern (Checker 8). Loops with no
// in-loop catch region have no separable failure path and are treated as
// backing off correctly.
func (a *analysis) loopBackoffOnFailurePath(m *jimple.Method, loop *cfg.Loop) bool {
	catch := catchStmtsInLoop(m, a.ctx.Dominators(m), loop)
	if len(catch) == 0 {
		return true
	}
	for i := range catch {
		if a.stmtBacksOff(m, i) {
			return true
		}
	}
	return false
}

// syntheticLoopSite fabricates a requestSite anchored at the loop head so
// retry-loop reports reuse the standard report plumbing.
func (a *analysis) syntheticLoopSite(m *jimple.Method, loop *cfg.Loop) *requestSite {
	site := a.newSite(requestSite{
		method: m,
		stmt:   loop.Head,
		lib:    a.reg.Libraries()[0],
		entry:  -1,
	})
	// Attribute the loop to the library actually used inside it, if any;
	// resolveContext needs target set first for HTTP-method resolution.
	for _, i := range loop.Body {
		if i >= len(m.Body) {
			continue
		}
		if inv, ok := jimple.InvokeOf(m.Body[i]); ok {
			if lib, tgt, isTarget := a.reg.TargetOf(inv.Callee); isTarget {
				site.lib, site.target, site.inv = lib, tgt, inv
				break
			}
		}
	}
	if site.target == nil && len(site.lib.Targets) > 0 {
		site.target = &site.lib.Targets[0]
	}
	entries := a.ctx.EntriesReaching(a.methodID(m))
	if len(entries) > 0 {
		a.resolveContext(site, entries)
	} else {
		site.component = jimple.OuterClass(m.Sig.Class)
		site.kind = android.KindOf(a.h, m.Sig.Class)
		site.userInitiated = site.kind == android.KindActivity
	}
	return site
}

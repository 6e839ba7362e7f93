package checkers

import (
	"fmt"
	"strings"

	"repro/internal/android"
	"repro/internal/apimodel"
	"repro/internal/dataflow"
	"repro/internal/jimple"
	"repro/internal/report"
)

// checkEndpoints implements Checker 7 (endpoint hygiene): constant-
// propagate the URL argument of every endpoint-accepting API call
// (request constructors and one-shot helpers, annotated per library in
// apimodel) — including `base + path` string building — and flag
//
//   - cleartext http:// endpoints: on disrupted networks (captive
//     portals, transparent proxies) cleartext requests are the ones that
//     get tampered with or blocked, and
//   - hardcoded IPv4-literal hosts: the server cannot move and DNS-level
//     failover cannot steer clients around an outage.
//
// A URL that does not fold to a constant is skipped — a documented
// false-negative source (DESIGN.md §11). Hygiene is lexical: sites are
// flagged even when unreachable from an entry point.
func (a *analysis) checkEndpoints() findings {
	return a.unitFindings("endpoints", len(a.methods), func(i int, f *findings) {
		a.checkMethodEndpoints(a.methods[i], f)
	})
}

func (a *analysis) checkMethodEndpoints(m *jimple.Method, f *findings) {
	var cp *dataflow.ConstProp
	for i, s := range m.Body {
		inv, ok := jimple.InvokeOf(s)
		if !ok {
			continue
		}
		lib, ep, isEp := a.reg.EndpointOf(inv.Callee)
		if !isEp {
			continue
		}
		f.stats.EndpointSites++
		if cp == nil {
			cp = a.ctx.ConstProp(m)
		}
		url, okURL := cp.ArgStr(i, inv, ep.URLArg)
		if !okURL {
			continue // dynamic URL: cannot judge hygiene statically
		}
		f.stats.ResolvedEndpoints++
		site := a.endpointSite(m, i, inv, lib)
		if strings.HasPrefix(url, "http://") {
			f.stats.CleartextEndpoints++
			f.report(a.newReport(site, report.CauseCleartextEndpoint,
				fmt.Sprintf("Request to cleartext endpoint %s; on disrupted networks (captive portals, proxies) http:// traffic is tampered with or blocked", url)))
		}
		if host := hostOf(url); isIPv4Literal(host) {
			f.stats.HardcodedIPEndpoints++
			f.report(a.newReport(site, report.CauseHardcodedIPEndpoint,
				fmt.Sprintf("Request endpoint %s hardcodes IP address %s; the server cannot move and DNS failover cannot route around outages", url, host)))
		}
	}
}

// endpointSite fabricates a requestSite at the endpoint-accepting call so
// hygiene reports reuse the standard report plumbing. The call itself may
// not be a target API (e.g. a request constructor), so the library's
// first target stands in for context resolution.
func (a *analysis) endpointSite(m *jimple.Method, stmt int, inv jimple.InvokeExpr, lib *apimodel.Library) *requestSite {
	site := &requestSite{method: m, stmt: stmt, inv: inv, lib: lib, entry: -1}
	if _, tgt, isTarget := a.reg.TargetOf(inv.Callee); isTarget {
		site.target = tgt
	} else if len(lib.Targets) > 0 {
		site.target = &lib.Targets[0]
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

// hostOf extracts the host from a URL string: scheme and userinfo
// stripped, cut at the first path/query/fragment separator or port colon.
func hostOf(url string) string {
	rest := url
	if i := strings.Index(rest, "://"); i >= 0 {
		rest = rest[i+3:]
	}
	if i := strings.IndexAny(rest, "/?#"); i >= 0 {
		rest = rest[:i]
	}
	if i := strings.LastIndex(rest, "@"); i >= 0 {
		rest = rest[i+1:]
	}
	if i := strings.Index(rest, ":"); i >= 0 {
		rest = rest[:i]
	}
	return rest
}

// isIPv4Literal reports whether host is a dotted-quad IPv4 literal.
func isIPv4Literal(host string) bool {
	parts := strings.Split(host, ".")
	if len(parts) != 4 {
		return false
	}
	for _, p := range parts {
		if len(p) == 0 || len(p) > 3 {
			return false
		}
		n := 0
		for _, c := range p {
			if c < '0' || c > '9' {
				return false
			}
			n = n*10 + int(c-'0')
		}
		if n > 255 {
			return false
		}
	}
	return true
}

package checkers

import (
	"fmt"

	"repro/internal/report"
)

// checkParameters implements Pattern 2 (paper §4.4.2): it judges each
// request's effective retry behaviour against its app context —
// time-sensitive user requests should retry, background-service requests
// and non-idempotent POSTs should not. The effective retry count comes
// from constant propagation over the retry config APIs, falling back to
// the library default when the developer never invoked one (which is what
// makes the majority of over-retries "default-caused", Table 8).
func (a *analysis) checkParameters() {
	a.unitFindings("parameters", len(a.sites), func(i int, f *findings) {
		a.checkSiteParameters(a.sites[i], f)
	})
}

func (a *analysis) checkSiteParameters(site *requestSite, f *findings) {
	if !site.lib.HasRetryAPIs {
		return
	}
	defaults := site.lib.Defaults
	defaultCaused := !site.retrySet
	retries := site.retryCount
	if !site.retryKnown {
		// An opaque retry policy (e.g. setRetryPolicy(policy)): assume
		// the developer chose deliberately; only flag defaults.
		return
	}

	// Cause 2.2b: retry on non-idempotent POST requests.
	if site.httpMethod == "POST" && retries > 0 {
		if !defaultCaused || defaults.RetriesApplyToPost {
			f.stats.OverRetryPost++
			if defaultCaused {
				f.stats.OverRetryPostDefault++
			}
			r := a.newReport(site, report.CauseOverRetryPost,
				fmt.Sprintf("POST request retried %d times (HTTP/1.1 forbids automatic retry of non-idempotent methods)", retries))
			r.DefaultCaused = defaultCaused
			f.report(site.method, site.stmt, r)
			return
		}
	}

	// Cause 2.2a: retry in background services.
	if !site.userInitiated && site.kind.String() == "Service" && retries > 0 {
		f.stats.OverRetryService++
		if defaultCaused {
			f.stats.OverRetryServiceDefault++
		}
		r := a.newReport(site, report.CauseOverRetryService,
			fmt.Sprintf("Background-service request retried %d times; retries waste energy with no user waiting", retries))
		r.DefaultCaused = defaultCaused
		f.report(site.method, site.stmt, r)
		return
	}

	// Cause 2.1: no retry for time-sensitive (user-initiated) requests.
	// POSTs are exempt: HTTP/1.1 forbids retrying them, so zero is
	// the correct setting there.
	if site.userInitiated && retries == 0 && site.httpMethod != "POST" {
		r := a.newReport(site, report.CauseNoRetryTimeSensitive,
			"User-initiated request performs no retry; a transient error surfaces directly to the user")
		r.DefaultCaused = defaultCaused
		f.stats.NoRetryTimeSensitive++
		f.report(site.method, site.stmt, r)
	}
}

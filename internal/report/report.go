// Package report defines NChecker's warning reports. A report carries the
// five items §4.6 of the paper prescribes — NPD information (message +
// code location), NPD impact, request context, request call stack, and a
// fix suggestion — rendered either as human-readable text (Figure 7's
// layout) or as JSON for tooling.
package report

import (
	"encoding/json"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/android"
	"repro/internal/apimodel"
	"repro/internal/jimple"
)

// Cause enumerates the NPD causes NChecker detects (paper Tables 5 and 6).
type Cause string

const (
	// CauseNoConnectivityCheck — no connectivity check before a request.
	CauseNoConnectivityCheck Cause = "no-connectivity-check"
	// CauseNoTimeout — no timeout config API invoked for a request.
	CauseNoTimeout Cause = "no-timeout"
	// CauseNoRetryConfig — no retry config API invoked for a request made
	// with a retry-capable library.
	CauseNoRetryConfig Cause = "no-retry-config"
	// CauseNoRetryTimeSensitive — a user-initiated (time-sensitive)
	// request with retries disabled (Cause 2.1).
	CauseNoRetryTimeSensitive Cause = "no-retry-time-sensitive"
	// CauseOverRetryService — retries enabled for a background-service
	// request (Cause 2.2a).
	CauseOverRetryService Cause = "over-retry-service"
	// CauseOverRetryPost — retries enabled for a non-idempotent POST
	// request (Cause 2.2b).
	CauseOverRetryPost Cause = "over-retry-post"
	// CauseNoFailureNotification — no user-visible error message in the
	// request callback of a user-initiated request (Pattern 3).
	CauseNoFailureNotification Cause = "no-failure-notification"
	// CauseNoErrorTypeCheck — the error callback ignores the error object's
	// type (Pattern 3, Volley only).
	CauseNoErrorTypeCheck Cause = "no-error-type-check"
	// CauseNoResponseCheck — a response object used without a validity
	// check (Pattern 4).
	CauseNoResponseCheck Cause = "no-response-check"
	// CauseAggressiveRetryLoop — a customized retry loop without backoff
	// (the Telegram case, Figure 2).
	CauseAggressiveRetryLoop Cause = "aggressive-retry-loop"
	// CauseOfflineStateNoRecovery — a network-state handler (connectivity
	// receiver or ConnectivityManager callback) that inspects connectivity
	// but never retries the work or falls back to cached content
	// (Checker 5).
	CauseOfflineStateNoRecovery Cause = "offline-state-no-recovery"
	// CauseStaleConnectivityCheck — a connectivity check separated from the
	// request it guards by a loop, a wait, or a callback boundary, so the
	// checked state can be stale by the time the request runs (Checker 6).
	CauseStaleConnectivityCheck Cause = "stale-connectivity-check"
	// CauseCleartextEndpoint — a request endpoint resolved by constant
	// propagation to a cleartext http:// URL (Checker 7).
	CauseCleartextEndpoint Cause = "cleartext-endpoint"
	// CauseHardcodedIPEndpoint — a request endpoint whose host is a
	// hardcoded IP literal, defeating DNS-based failover (Checker 7).
	CauseHardcodedIPEndpoint Cause = "hardcoded-ip-endpoint"
	// CauseRetryStorm — a retry loop whose backoff does not run on the
	// retry path itself (e.g. a sleep only on the success path), so
	// failures still reconnect in a tight storm (Checker 8).
	CauseRetryStorm Cause = "retry-storm"
)

// AllCauses lists every cause in report order.
func AllCauses() []Cause {
	return []Cause{
		CauseNoConnectivityCheck, CauseNoTimeout, CauseNoRetryConfig,
		CauseNoRetryTimeSensitive, CauseOverRetryService, CauseOverRetryPost,
		CauseNoFailureNotification, CauseNoErrorTypeCheck,
		CauseNoResponseCheck, CauseAggressiveRetryLoop,
		CauseOfflineStateNoRecovery, CauseStaleConnectivityCheck,
		CauseCleartextEndpoint, CauseHardcodedIPEndpoint, CauseRetryStorm,
	}
}

// Impact describes the user-experience damage a cause leads to (paper §2.2).
type Impact string

const (
	ImpactDysfunction  Impact = "Dysfunction"
	ImpactUnfriendlyUI Impact = "Unfriendly UI"
	ImpactCrashFreeze  Impact = "Crash/Freeze"
	ImpactBatteryDrain Impact = "Battery drain"
)

// impactOf maps each cause to its dominant UX impacts.
var impactOf = map[Cause][]Impact{
	CauseNoConnectivityCheck:   {ImpactUnfriendlyUI, ImpactBatteryDrain},
	CauseNoTimeout:             {ImpactDysfunction, ImpactUnfriendlyUI},
	CauseNoRetryConfig:         {ImpactDysfunction},
	CauseNoRetryTimeSensitive:  {ImpactDysfunction},
	CauseOverRetryService:      {ImpactBatteryDrain},
	CauseOverRetryPost:         {ImpactDysfunction, ImpactBatteryDrain},
	CauseNoFailureNotification: {ImpactUnfriendlyUI},
	CauseNoErrorTypeCheck:      {ImpactUnfriendlyUI},
	CauseNoResponseCheck:       {ImpactCrashFreeze},
	CauseAggressiveRetryLoop:   {ImpactBatteryDrain},

	CauseOfflineStateNoRecovery: {ImpactDysfunction, ImpactUnfriendlyUI},
	CauseStaleConnectivityCheck: {ImpactDysfunction, ImpactUnfriendlyUI},
	CauseCleartextEndpoint:      {ImpactDysfunction},
	CauseHardcodedIPEndpoint:    {ImpactDysfunction},
	CauseRetryStorm:             {ImpactBatteryDrain},
}

// Impacts returns the UX impacts of a cause.
func Impacts(c Cause) []Impact { return impactOf[c] }

// Loc is a code location: a method and a statement index within it.
type Loc struct {
	Method jimple.Sig `json:"method"`
	Stmt   int        `json:"stmt"`
}

func (l Loc) String() string {
	var b strings.Builder
	l.writeTo(&sink{b: &b})
	return b.String()
}

// writeTo writes l's String form to b, rendering through a stack buffer.
func (l Loc) writeTo(b *sink) {
	var buf [256]byte
	k := l.Method.AppendKey(buf[:0])
	k = append(k, ", stmt "...)
	b.Write(strconv.AppendInt(k, int64(l.Stmt), 10))
}

// Frame mirrors callgraph.Frame without importing it (keeps report free of
// the analysis packages).
type Frame struct {
	Method string `json:"method"`
	Site   int    `json:"site"`
}

// Context describes who initiates the request (paper item 3 of §4.6).
type Context struct {
	Component     string                `json:"component"`
	Kind          android.ComponentKind `json:"-"`
	KindName      string                `json:"kind"`
	UserInitiated bool                  `json:"userInitiated"`
	HTTPMethod    string                `json:"httpMethod,omitempty"`
}

// Report is one NPD warning.
type Report struct {
	Cause         Cause           `json:"cause"`
	Lib           apimodel.LibKey `json:"library,omitempty"`
	Message       string          `json:"message"`
	Location      Loc             `json:"location"`
	Impacts       []Impact        `json:"impacts"`
	Context       Context         `json:"context"`
	CallStack     []Frame         `json:"callStack,omitempty"`
	FixSuggestion string          `json:"fixSuggestion"`
	// DefaultCaused marks NPDs manifested purely by library default
	// behaviour (the developer never invoked the relevant API) — the
	// Table 8 "default behavior" column.
	DefaultCaused bool `json:"defaultCaused,omitempty"`
	// Validation is the dynamic-validation verdict when the scan ran with
	// validation enabled: ValidationConfirmed, ValidationUnconfirmed, or
	// ValidationNotValidated. Empty when validation did not run.
	Validation string `json:"validation,omitempty"`
	// ValidationNote explains the verdict: which injected scenario made
	// the defect manifest and how, or why the warning could not be
	// validated.
	ValidationNote string `json:"validationNote,omitempty"`
}

// Dynamic-validation verdicts. A warning is Confirmed when replaying its
// witness entry point under an injected disruption made the defect
// manifest (crash, silent failure, hang, excess retries) relative to the
// healthy-network baseline; Unconfirmed when every replay stayed clean —
// a false-positive candidate; NotValidated when the warning could not be
// replayed conclusively (no witness entry, no interpretable body,
// exhausted step budget, replay panic, or deadline).
const (
	ValidationConfirmed    = "confirmed"
	ValidationUnconfirmed  = "unconfirmed"
	ValidationNotValidated = "not-validated"
)

// Render formats the report in the layout of the paper's Figure 7.
func (r *Report) Render() string {
	var b strings.Builder
	r.writeTo(&sink{b: &b})
	return b.String()
}

// sink is what a report renders into: a strings.Builder, or, with b
// nil, nothing, only counting the bytes into n so that a
// strings.Builder can be sized exactly first.
type sink struct {
	b *strings.Builder
	n int
}

func (w *sink) Write(p []byte) {
	if w.b == nil {
		w.n += len(p)
		return
	}
	w.b.Write(p)
}

func (w *sink) WriteByte(c byte) error {
	if w.b == nil {
		w.n++
		return nil
	}
	return w.b.WriteByte(c)
}

func (w *sink) WriteString(s string) {
	if w.b == nil {
		w.n += len(s)
		return
	}
	w.b.WriteString(s)
}

// writeTo writes the Render form of r to b.
func (r *Report) writeTo(b *sink) {
	write(b, "NPD Information\n  ", r.Message, "! at ")
	r.Location.writeTo(b)
	b.WriteString("\nNPD impact\n  ")
	for i, im := range r.Impacts {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(string(im))
	}
	who, note := "background service", "No user waiting; conserve energy and mobile data."
	if r.Context.UserInitiated {
		who, note = "user", "Need to notify users if the operation fails."
	}
	write(b, "\nNetwork request context\n  Request made by ", who, " (", r.Context.Component, "). ", note, "\n")
	if len(r.CallStack) > 0 {
		b.WriteString("Network request call stack\n")
		for i, f := range r.CallStack {
			b.WriteString("  ")
			for j := 0; j < i; j++ {
				b.WriteByte('-')
			}
			write(b, "> (", f.Method)
			if f.Site >= 0 {
				var nb [20]byte
				b.WriteString(": ")
				b.Write(strconv.AppendInt(nb[:0], int64(f.Site), 10))
			}
			b.WriteString(")\n")
		}
	}
	write(b, "Fix Suggestion\n  ", r.FixSuggestion, "\n")
	if r.Validation != "" {
		// Rendered only when the validation stage ran, so scans without
		// -validate keep their historical byte-identical output.
		write(b, "Dynamic validation\n  ", r.Validation)
		if r.ValidationNote != "" {
			write(b, ": ", r.ValidationNote)
		}
		b.WriteByte('\n')
	}
}

// write writes each of ss to b.
func write(b *sink, ss ...string) {
	for _, s := range ss {
		b.WriteString(s)
	}
}

// JSON renders the report as indented JSON.
func (r *Report) JSON() ([]byte, error) {
	r.Context.KindName = r.Context.Kind.String()
	return json.MarshalIndent(r, "", "  ")
}

// Suggest builds the fix suggestion for a cause in context, following the
// paper's per-type, context-aware suggestions (§4.6).
func Suggest(c Cause, ctx Context, lib *apimodel.Library) string {
	libName := "the network library"
	if lib != nil {
		libName = lib.Name
	}
	switch c {
	case CauseNoConnectivityCheck:
		s := "Use ConnectivityManager.getActiveNetworkInfo() to check connectivity before the request."
		if ctx.UserInitiated {
			return s + " Show an error message if no connection."
		}
		return s + " Cache and defer the operation if no connection to save energy and mobile data."
	case CauseNoTimeout:
		return fmt.Sprintf("Call %s's timeout config API to set an explicit timeout; the default can block for minutes under a dead connection.", libName)
	case CauseNoRetryConfig:
		return fmt.Sprintf("Call %s's retry config API to set a retry policy appropriate for this request instead of trusting the default.", libName)
	case CauseNoRetryTimeSensitive:
		return "This request is user-initiated: enable a bounded retry so transient errors do not surface to the user."
	case CauseOverRetryService:
		return "This request runs in a background service: disable retries (set retry count to 0) to save energy and mobile data."
	case CauseOverRetryPost:
		return "HTTP/1.1 forbids automatic retry of non-idempotent methods: disable retries for this POST request."
	case CauseNoFailureNotification:
		return "Add an error message (e.g. Toast.show) in the request's error callback so the user can tell a network failure from missing content."
	case CauseNoErrorTypeCheck:
		return "Inspect the error object's type in the error callback (e.g. NoConnectionError vs. ClientError) and handle each case accordingly."
	case CauseNoResponseCheck:
		return "Check the response's validity (null check / isSuccessful()) before reading its body; responses can be invalid under network disruptions."
	case CauseAggressiveRetryLoop:
		return "Back off between retry attempts (exponential backoff) instead of reconnecting in a tight loop; tight loops burn CPU and battery under poor signal."
	case CauseOfflineStateNoRecovery:
		return "When connectivity returns, retry the pending operation or serve cached content; a handler that only observes the state change leaves the app stuck offline."
	case CauseStaleConnectivityCheck:
		return "Re-check connectivity immediately before the request: the state observed by this check can change across the intervening loop, wait, or callback boundary."
	case CauseCleartextEndpoint:
		return "Use an https:// endpoint: cleartext http traffic is blocked by default on modern Android and is trivially intercepted on public networks."
	case CauseHardcodedIPEndpoint:
		return "Use a host name instead of a hardcoded IP address so DNS failover and server migration keep working under disruptions."
	case CauseRetryStorm:
		return "Sleep with backoff on the retry path (inside the failure handler) before reconnecting; backoff only on the success path still storms the server on failures."
	}
	return "Review the network error handling at this location."
}

// RenderAll renders a scan's reports exactly as cmd/nchecker's default
// text mode prints them: each report's Figure-7 layout followed by a
// blank-line separator. It is the single definition of "the CLI's report
// text", shared by the CLI and by nchecker serve so an HTTP scan's report
// body is byte-identical to the command-line scan of the same app. Every
// report is written straight into one builder, sized exactly by a first
// pass that counts the bytes.
func RenderAll(reports []Report) string {
	var count sink
	for i := range reports {
		reports[i].writeTo(&count)
		count.n++
	}
	var b strings.Builder
	b.Grow(count.n)
	w := sink{b: &b}
	for i := range reports {
		reports[i].writeTo(&w)
		w.WriteByte('\n')
	}
	return b.String()
}

// Summary aggregates reports for quick printing.
type Summary struct {
	Total   int           `json:"total"`
	ByCause map[Cause]int `json:"byCause"`
}

// Summarize counts reports per cause.
func Summarize(reports []Report) Summary {
	s := Summary{ByCause: make(map[Cause]int)}
	for i := range reports {
		s.Total++
		s.ByCause[reports[i].Cause]++
	}
	return s
}

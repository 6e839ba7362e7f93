package checkers

import (
	"fmt"

	"repro/internal/interp"
	"repro/internal/jimple"
	"repro/internal/report"
)

// validate.go — dynamic counterexample validation (DESIGN.md §10).
//
// The validation stage closes the static/dynamic loop the paper's Volley
// experiment opened: for every warning carrying a concrete witness (the
// entry point at the top of its call stack), the entry is replayed under
// each injected disruption of interp.ValidationScenarios() and compared
// against a NetOK baseline replay. A warning whose predicted defect
// manifests — a crash the baseline didn't have, a silent failure, a hang,
// excess retries, a runaway loop — is Confirmed with the scenario and
// manifestation in its note; a warning whose replays all stay clean is
// Unconfirmed (a false-positive candidate); a warning that cannot be
// replayed conclusively (no witness, no interpretable body, step budget
// exhausted, replay panic, deadline) is NotValidated.
//
// The stage runs after the checker merge, before cachewrite, so verdicts
// are persisted and restored with the reports. PR 2 fault isolation
// applies at warning granularity: a panicking replay degrades that one
// warning to NotValidated via runUnit; a deadline marks the remaining
// warnings NotValidated and records one ErrDeadline/ErrCanceled (which
// also keeps half-validated results out of the cache).

// validateSeed fixes the replay RNG base so verdicts are reproducible
// across runs, batch concurrency, and open paths. Per-entry streams are
// decorrelated by interp's signature-keyed seeding; per-scenario streams
// by the scenario offset below.
const validateSeed = 2016

// scenarioSeed decorrelates the fault sequences of different scenarios
// replaying the same entry.
func scenarioSeed(s interp.Scenario) int64 {
	return validateSeed + int64(s)*1_000_003
}

type replayKey struct {
	entry    string
	scenario interp.Scenario
}

type replayOutcome struct {
	obs interp.Observations
	ok  bool // the entry had an interpretable body
}

// validateReports assigns a verdict to every report in place, in report
// order, then scenario order, so the verdicts are deterministic.
func (a *analysis) validateReports(reports []report.Report) {
	if len(reports) == 0 {
		return
	}
	// The replay executes whatever the entry point reaches at run time,
	// not just what the checkers consulted — the classes the closure left
	// undecoded must be materialized first, or verdicts would diverge
	// from the whole-program oracle's.
	if err := a.app.Lazy.MaterializeAll(); err != nil {
		panic(fmt.Sprintf("validate: materializing app for replay: %v", err))
	}
	rp := interp.NewReplayer(a.app)
	cache := make(map[replayKey]replayOutcome)
	for i := range reports {
		if err := a.scanCtx.Err(); err != nil {
			a.failCancel("validate", err)
			return // the pipeline sweep marks the remainder NotValidated
		}
		a.runUnit("validate", i, func(i int) {
			v, note := a.validateOne(rp, cache, &reports[i])
			reports[i].Validation = v
			reports[i].ValidationNote = note
			a.diag.Validate.count(v)
		})
	}
}

// replay runs (or replays from the per-scan memo) one entry × scenario.
func (a *analysis) replay(rp *interp.Replayer, cache map[replayKey]replayOutcome, entry jimple.Sig, s interp.Scenario) replayOutcome {
	k := replayKey{entry: entry.Key(), scenario: s}
	if out, ok := cache[k]; ok {
		return out
	}
	obs, ok := rp.Replay(entry, s, scenarioSeed(s))
	out := replayOutcome{obs: obs, ok: ok}
	if ok {
		a.diag.Validate.Replays++
		if obs.BudgetExceeded {
			a.diag.Validate.BudgetHits++
		}
	}
	cache[k] = out
	return out
}

// validateOne decides one warning's verdict.
func (a *analysis) validateOne(rp *interp.Replayer, cache map[replayKey]replayOutcome, r *report.Report) (string, string) {
	entry, ok := witnessEntry(r)
	if !ok {
		return report.ValidationNotValidated, "no concrete witness entry point"
	}
	base := a.replay(rp, cache, entry, interp.NetOK)
	if !base.ok {
		return report.ValidationNotValidated, "witness entry has no interpretable body"
	}
	if base.obs.BudgetExceeded {
		return report.ValidationNotValidated, "baseline replay exhausted its step budget"
	}
	budgetHit := false
	for _, s := range interp.ValidationScenarios() {
		out := a.replay(rp, cache, entry, s)
		if out.obs.BudgetExceeded {
			// Exhausting the budget only under injected faults IS the
			// manifestation of a runaway retry loop; for every other
			// cause a truncated replay proves nothing.
			if r.Cause == report.CauseAggressiveRetryLoop || r.Cause == report.CauseRetryStorm {
				return report.ValidationConfirmed, fmt.Sprintf("runaway-loop under %s", s)
			}
			budgetHit = true
			continue
		}
		if m := manifestation(r.Cause, &base.obs, &out.obs); m != "" {
			return report.ValidationConfirmed, fmt.Sprintf("%s under %s", m, s)
		}
	}
	if budgetHit {
		return report.ValidationNotValidated, "replay exhausted its step budget under injected faults"
	}
	return report.ValidationUnconfirmed,
		fmt.Sprintf("no manifestation across %d injected scenarios", len(interp.ValidationScenarios()))
}

// witnessEntry extracts the warning's witness entry point: the top frame
// of the statically-computed call stack.
func witnessEntry(r *report.Report) (jimple.Sig, bool) {
	if len(r.CallStack) == 0 {
		return jimple.Sig{}, false
	}
	sig, err := jimple.ParseSigKey(r.CallStack[0].Method)
	if err != nil {
		return jimple.Sig{}, false
	}
	return sig, true
}

// manifestation compares a fault-scenario replay against the healthy
// baseline and reports how the warned-about defect manifested, or "" if
// it did not. The accepted manifestations are cause-specific so a
// Confirmed verdict means "the predicted kind of damage", not just "the
// replay looked different".
func manifestation(cause report.Cause, base, obs *interp.Observations) string {
	newCrash := obs.Crashed() && !base.Crashed()
	newSilent := obs.SilentFailure() && !base.SilentFailure()
	newHang := obs.HangSuspect() && !base.HangSuspect()
	extraAttempts := obs.NetworkAttempts > base.NetworkAttempts

	crash := func() string {
		return fmt.Sprintf("crash (%s)", obs.Crashes[0].Type)
	}
	switch cause {
	case report.CauseNoTimeout:
		// The defect is an unbounded stall; only a hang confirms it.
		if newHang {
			return "hang"
		}
	case report.CauseOverRetryService, report.CauseOverRetryPost:
		// The defect is automatic retries firing where they should not:
		// extra radio attempts relative to the healthy baseline.
		if extraAttempts {
			return "excess-retries"
		}
	case report.CauseNoFailureNotification:
		if newSilent {
			return "silent-failure"
		}
	case report.CauseNoResponseCheck:
		// The hazard is reading an invalid response — an unhandled crash
		// (typically an NPE on the null body).
		if newCrash {
			return crash()
		}
	case report.CauseAggressiveRetryLoop, report.CauseRetryStorm:
		// Budget exhaustion is handled by the caller; a hang or attempt
		// blow-up short of the budget also confirms the loop. A retry
		// storm's backoff sits off the failure path, so under injected
		// faults (connection-reset especially) the attempts pile up
		// exactly like the unthrottled loop's.
		if newHang {
			return "hang"
		}
		if extraAttempts {
			return "excess-retries"
		}
	case report.CauseCleartextEndpoint, report.CauseHardcodedIPEndpoint:
		// The hazard is interception or unreachability of the endpoint —
		// the captive-portal scenario's specialty: the tampered response
		// crashes the unsuspecting parser or fails silently.
		if newCrash {
			return crash()
		}
		if newSilent {
			return "silent-failure"
		}
	case report.CauseOfflineStateNoRecovery:
		// The defect is an offline transition with no retry or cached
		// fallback: the user faces a dead end — silence or a crash.
		if newSilent {
			return "silent-failure"
		}
		if newCrash {
			return crash()
		}
	case report.CauseStaleConnectivityCheck:
		// The check passed before the loop/wait; by use time the network
		// changed, so failures slip past the guard as unhandled damage.
		if newCrash {
			return crash()
		}
		if newSilent {
			return "silent-failure"
		}
		if newHang {
			return "hang"
		}
	default:
		// Connectivity / retry-config / error-type warnings manifest as
		// whichever unhandled damage the missing check lets through.
		if newCrash {
			return crash()
		}
		if newSilent {
			return "silent-failure"
		}
		if newHang {
			return "hang"
		}
	}
	return ""
}

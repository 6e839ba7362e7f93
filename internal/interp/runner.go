package interp

import (
	"hash/fnv"
	"sort"

	"repro/internal/android"
	"repro/internal/apk"
	"repro/internal/baselayer"
	"repro/internal/hierarchy"
	"repro/internal/jimple"
)

// EntryRun is one entry point executed under one scenario.
type EntryRun struct {
	Entry    jimple.Sig
	Kind     android.ComponentKind
	Scenario Scenario
	Obs      Observations
}

// RunReport aggregates a whole app's dynamic exploration.
type RunReport struct {
	Runs []EntryRun
}

// RunApp executes every framework entry point of the app under the given
// scenario, VanarSena-style: construct the component, fire the lifecycle
// method, observe what manifests. Each entry gets a fresh machine so
// observations do not bleed across runs.
func RunApp(app *apk.App, scenario Scenario, seed int64) *RunReport {
	r := NewReplayer(app)
	entries := discoverEntries(app, r.h)
	rep := &RunReport{}
	for _, e := range entries {
		obs, ok := r.Replay(e.sig, scenario, seed)
		if !ok {
			continue
		}
		rep.Runs = append(rep.Runs, EntryRun{
			Entry: e.sig, Kind: e.kind, Scenario: scenario, Obs: obs,
		})
	}
	return rep
}

// entrySeed derives the per-entry RNG seed from the entry's signature.
// Keying on the signature (rather than the entry's index in the
// discovered list) makes each entry's fault sequence independent of the
// rest of the app: adding or removing an unrelated entry point must not
// reshuffle another entry's observations.
func entrySeed(base int64, sig jimple.Sig) int64 {
	h := fnv.New64a()
	h.Write([]byte(sig.Key()))
	return base ^ int64(h.Sum64())
}

// Replayer replays individual entry points of one app under injected
// fault scenarios — the dynamic half of warning validation. Build one
// per app (the merged program and hierarchy are shared across replays),
// then call Replay per entry × scenario.
type Replayer struct {
	prog      *jimple.Program
	h         *hierarchy.Hierarchy
	receivers []string
}

// NewReplayer layers the app over the shared framework and library stub
// layer and builds the execution hierarchy.
func NewReplayer(app *apk.App) *Replayer {
	h := baselayer.Get().Overlay(app.Program, nil)
	r := &Replayer{prog: h.Program(), h: h}
	if app.Manifest != nil {
		r.receivers = app.Manifest.Receivers
	}
	return r
}

// Replay runs one entry point under one scenario on a fresh machine so
// observations never bleed across runs. ok is false when the entry has
// no interpretable body. An exception escaping the entry is recorded as
// a crash — except the step-budget sentinel, which is recorded as
// Obs.BudgetExceeded so a timed-out run stays distinguishable from a
// clean one.
func (r *Replayer) Replay(entry jimple.Sig, scenario Scenario, seed int64) (Observations, bool) {
	method := r.prog.Method(entry)
	if method == nil || !method.HasBody() {
		return Observations{}, false
	}
	m := NewMachine(r.h, NewNetModel(scenario, entrySeed(seed, entry)))
	m.Receivers = r.receivers
	_, thrown := m.Call(method, NewObj(entry.Class), zeroArgs(method.Sig))
	if thrown != nil {
		if thrown.Type == budgetExceeded {
			m.Obs.BudgetExceeded = true
		} else {
			m.Obs.Crashes = append(m.Obs.Crashes, *thrown)
		}
	}
	return *m.Obs, true
}

type entryPoint struct {
	sig  jimple.Sig
	kind android.ComponentKind
}

// discoverEntries mirrors the static tool's entry discovery: lifecycle
// methods of component subclasses (but dynamically we skip listener
// callbacks, which setOnClickListener already exercises in-run).
func discoverEntries(app *apk.App, h *hierarchy.Hierarchy) []entryPoint {
	var out []entryPoint
	for _, c := range app.Program.Classes() {
		for _, base := range android.ComponentBases() {
			if !h.IsSubtype(c.Name, base) {
				continue
			}
			for _, sub := range android.LifecycleSubsigs(base) {
				m := c.Method(sub)
				if m == nil || !m.HasBody() {
					continue
				}
				out = append(out, entryPoint{sig: m.Sig, kind: android.KindOf(h, c.Name)})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].sig.Key() < out[j].sig.Key() })
	return out
}

func zeroArgs(sig jimple.Sig) []Value {
	args := make([]Value, len(sig.Params))
	for i, p := range sig.Params {
		if jimple.IsPrimitive(p) {
			args[i] = int64(0)
		}
	}
	return args
}

// DynamicFinding is an NPD manifestation a run-time checker can report.
type DynamicFinding string

const (
	// FindingCrash: an uncaught exception (what VanarSena files a crash
	// report for).
	FindingCrash DynamicFinding = "crash"
	// FindingHang: virtual time beyond a user's patience (needs the
	// timing fault model the paper notes most dynamic tools lack).
	FindingHang DynamicFinding = "hang"
	// FindingRunawayLoop: the step budget died in a tight loop.
	FindingRunawayLoop DynamicFinding = "runaway-loop"
	// FindingSilentFailure: a failed user-facing request with no
	// user-visible message.
	FindingSilentFailure DynamicFinding = "silent-failure"
)

// Findings classifies one run's manifestations. crashOnly restricts to
// crash reports (the VanarSena model); otherwise hangs, runaway loops and
// silent failures are also counted (a Caiipa-like richer oracle).
func (run *EntryRun) Findings(crashOnly bool) []DynamicFinding {
	var out []DynamicFinding
	if run.Obs.Crashed() {
		out = append(out, FindingCrash)
	}
	if crashOnly {
		return out
	}
	if run.Obs.BudgetExceeded {
		out = append(out, FindingRunawayLoop)
	} else if run.Obs.HangSuspect() {
		out = append(out, FindingHang)
	}
	if run.Kind == android.KindActivity && run.Obs.SilentFailure() {
		out = append(out, FindingSilentFailure)
	}
	return out
}

// Findings aggregates per-run findings over the whole report.
func (r *RunReport) Findings(crashOnly bool) map[DynamicFinding]int {
	out := make(map[DynamicFinding]int)
	for i := range r.Runs {
		for _, f := range r.Runs[i].Findings(crashOnly) {
			out[f]++
		}
	}
	return out
}

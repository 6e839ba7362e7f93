package checkers

import (
	"fmt"
	"strings"

	"repro/internal/android"
	"repro/internal/apimodel"
	"repro/internal/dex"
	"repro/internal/jimple"
)

// This file is the demand-driven closure every scan runs (paper §4.2's
// "targeted analysis": start from the network-API call sites and pull in
// only the code that can matter, instead of scanning the whole app). The
// closure is computed from dex.MethodRef skim records — available both
// from a lazy decode (dex.Lazy.MethodRefs, bodies never decoded) and from
// a loaded program (dex.MethodRefsOf) — so the two scan paths demand the
// same classes.
//
// The engine computes two sets:
//
//	RM — relevant methods: the summary roots. Seeded by every method
//	     with a top-level call to a registry target API and every
//	     implementation of a registered request-callback subsignature
//	     (the two places the pipeline resolves summaries from), then
//	     grown backward: callers of RM methods (by callee name, which
//	     over-approximates every CHA edge), and — when an RM method
//	     implements an async-dispatch callee (run(), doInBackground(),
//	     onClick(), …) — the callers of that dispatch's trigger
//	     (Thread.start, Handler.post, setOnClickListener, …). With
//	     -icc, methods launching components (startActivity /
//	     sendBroadcast) also join RM, since ICC edges make them
//	     transitive callers of component lifecycles.
//
//	D  — demanded classes: the classes whose bodies the scan decodes
//	     and analyzes. Starts as RM's classes plus (with -icc) every
//	     explicit-intent target class and — if the app broadcasts at
//	     all — every manifest-declared receiver, then closed forward:
//	     anything a demanded class's methods call (by callee name) and
//	     anything they dispatch asynchronously joins D. Forward closure
//	     makes D contain every method any graph traversal (BFS,
//	     CallStack, ReachableFrom) can reach from a demanded entry, so
//	     reachability answers inside the closure equal the whole-app
//	     graph's.
//
// Both closures deliberately over-approximate (name-based caller
// matching, subsig-based dispatch matching, receiver-insensitive intent
// targets): extra classes cost decode time, never correctness. What must
// hold — and what the differential tests pin — is that no method any
// checker consults is missing, so reports and Stats are byte-identical
// to the whole-program oracle (oracle.go). DESIGN.md §9 spells out the
// equivalence argument.

// ICC launch subsignatures, mirroring the switch in callgraph/icc.go.
const (
	iccStartActivitySubsig = "startActivity(android.content.Intent)void"
	iccSendBroadcastSubsig = "sendBroadcast(android.content.Intent)void"
)

// targetedClosure is the converged demand: summary roots, demanded
// classes, and the size counters Diagnostics reports.
type targetedClosure struct {
	roots    []string // RM method keys, sorted; non-nil even when empty
	demanded map[string]bool
	stats    TargetedStats
}

// closureTables are the closure rules' registry-derived lookup tables,
// built once per registry (closureTablesOf) rather than once per scan.
type closureTables struct {
	// Async dispatch: trigger subsig → dispatched callee subsigs (forward
	// rule) and the reverse (backward rule).
	triggerCallees, calleeTriggers map[string][]string
	// seedSubsigs are the registered request-callback and network-state
	// handler subsigs: implementing one seeds the closure.
	seedSubsigs map[string]bool
	// The method names of the subsigs a record's own subsig (ownNames) or
	// a call's subsig (callNames) is looked up against. A subsig whose
	// name is absent cannot match, so the scan never renders it.
	ownNames, callNames map[string]bool
}

// closureTablesKey keys closureTables in apimodel.Registry.Memo.
type closureTablesKey struct{}

// closureTablesOf returns reg's closure tables, building them on first use.
func closureTablesOf(reg *apimodel.Registry) *closureTables {
	return reg.Memo(closureTablesKey{}, func() any { return newClosureTables(reg) }).(*closureTables)
}

func newClosureTables(reg *apimodel.Registry) *closureTables {
	t := &closureTables{
		triggerCallees: make(map[string][]string),
		calleeTriggers: make(map[string][]string),
		seedSubsigs:    make(map[string]bool),
		ownNames:       make(map[string]bool),
		callNames:      make(map[string]bool),
	}
	for _, d := range android.AsyncDispatches() {
		t.triggerCallees[d.TriggerSubsig] = append(t.triggerCallees[d.TriggerSubsig], d.CalleeSubsigs...)
		t.callNames[subsigName(d.TriggerSubsig)] = true
		for _, cs := range d.CalleeSubsigs {
			t.calleeTriggers[cs] = append(t.calleeTriggers[cs], d.TriggerSubsig)
			t.ownNames[subsigName(cs)] = true
		}
	}
	// Network-state handler implementations seed the closure for the
	// offline-state checker (checker5.go): BroadcastReceiver.onReceive and
	// NetworkCallback overrides. Subsig-only matching over-approximates (an
	// onReceive outside a receiver also seeds) — extra decode, never a
	// missed handler.
	seeds := append([]string{onReceiveSubsig}, android.NetworkCallbackSubsigs...)
	for _, lib := range reg.Libraries() {
		for _, cb := range lib.Callbacks {
			seeds = append(seeds, cb.ErrorSubsig, cb.SuccessSubsig)
		}
	}
	for _, sub := range seeds {
		if sub != "" {
			t.seedSubsigs[sub] = true
			t.ownNames[subsigName(sub)] = true
		}
	}
	t.callNames[subsigName(iccStartActivitySubsig)] = true
	t.callNames[subsigName(iccSendBroadcastSubsig)] = true
	return t
}

// subsigName returns the method name a subsig starts with.
func subsigName(sub string) string {
	name, _, _ := strings.Cut(sub, "(")
	return name
}

// computeTargetedClosure runs the closure rules over the skim records.
func computeTargetedClosure(records []dex.MethodRef, reg *apimodel.Registry, man *android.Manifest, enableICC bool) targetedClosure {
	tab := closureTablesOf(reg)
	// Record indices: declaring class, own name/subsig (backward and
	// forward rules resolve callees against these), and per-callee
	// reverse maps, deduplicated per record: seen maps a callee name or
	// subsig to the last record (index+1) filed under it. Names never
	// contain '(' and subsigs always do, so the two share one map.
	byClass := make(map[string][]int)
	recsByName := make(map[string][]int)
	recsBySubsig := make(map[string][]int)
	callersByName := make(map[string][]int)
	callersBySubsig := make(map[string][]int)
	seen := make(map[string]int)
	// Subsignatures repeat heavily across records (every onClick, every
	// run()); intern the few the rules can match, and remember each
	// record's own subsig ("" when no rule can match it) so the rule
	// passes below never re-render one.
	intern := jimple.NewInterner()
	recSub := make([]string, len(records))
	callSub := func(c jimple.Sig) string {
		if !tab.callNames[c.Name] {
			return ""
		}
		return intern.SubSigKey(c)
	}
	for i := range records {
		r := &records[i]
		byClass[r.Sig.Class] = append(byClass[r.Sig.Class], i)
		recsByName[r.Sig.Name] = append(recsByName[r.Sig.Name], i)
		if tab.ownNames[r.Sig.Name] {
			recSub[i] = intern.SubSigKey(r.Sig)
			recsBySubsig[recSub[i]] = append(recsBySubsig[recSub[i]], i)
		}
		for _, c := range r.Calls {
			if seen[c.Name] != i+1 {
				seen[c.Name] = i + 1
				callersByName[c.Name] = append(callersByName[c.Name], i)
			}
			if sub := callSub(c); sub != "" && seen[sub] != i+1 {
				seen[sub] = i + 1
				callersBySubsig[sub] = append(callersBySubsig[sub], i)
			}
		}
	}

	rm := make([]bool, len(records))
	var stack []int
	add := func(i int) {
		if !rm[i] {
			rm[i] = true
			stack = append(stack, i)
		}
	}

	// Seeds: target-API call sites, registered callback implementations —
	// exactly the methods the pipeline resolves summaries from
	// (discover.go, checker3.go, checker4.go) — plus endpoint-API callers
	// (checker7.go scans them even when no target API is nearby) and
	// network-state handlers (checker5.go).
	seedCount := 0
	for i := range records {
		r := &records[i]
		seed := tab.seedSubsigs[recSub[i]]
		for _, c := range r.Calls {
			if seed {
				break
			}
			if _, _, ok := reg.TargetOf(c); ok {
				seed = true
			} else if _, _, ok := reg.EndpointOf(c); ok {
				seed = true
			}
		}
		if seed {
			seedCount++
			add(i)
		}
	}

	// ICC roots: component launchers are callers through ICC edges.
	sawBroadcast := false
	if enableICC {
		for i := range records {
			for _, c := range records[i].Calls {
				switch callSub(c) {
				case iccStartActivitySubsig:
					add(i)
				case iccSendBroadcastSubsig:
					sawBroadcast = true
					add(i)
				}
			}
		}
	}

	// Backward fixpoint over RM.
	processedName := make(map[string]bool)
	processedTrigger := make(map[string]bool)
	for len(stack) > 0 {
		i := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		r := &records[i]
		if n := r.Sig.Name; !processedName[n] {
			processedName[n] = true
			for _, j := range callersByName[n] {
				add(j)
			}
		}
		for _, trig := range tab.calleeTriggers[recSub[i]] {
			if processedTrigger[trig] {
				continue
			}
			processedTrigger[trig] = true
			for _, j := range callersBySubsig[trig] {
				add(j)
			}
		}
	}

	// Forward class fixpoint over D. Only classes with skim records can
	// be demanded: a class with no bodied methods contributes nothing to
	// any stage.
	demanded := make(map[string]bool)
	var cstack []string
	addClass := func(cls string) {
		if demanded[cls] || len(byClass[cls]) == 0 {
			return
		}
		demanded[cls] = true
		cstack = append(cstack, cls)
	}
	for i := range records {
		if rm[i] {
			addClass(records[i].Sig.Class)
		}
	}
	if enableICC {
		// Explicit-intent targets (a superset of what callgraph/icc.go
		// resolves — it additionally requires the setClassName receiver to
		// alias the launched Intent) and, once any broadcast exists, every
		// manifest-declared receiver (icc.go wires sendBroadcast to all of
		// them).
		for i := range records {
			for _, cls := range records[i].Intents {
				addClass(cls)
			}
		}
		if sawBroadcast {
			for _, rcv := range man.Receivers {
				addClass(rcv)
			}
		}
	}
	for len(cstack) > 0 {
		cls := cstack[len(cstack)-1]
		cstack = cstack[:len(cstack)-1]
		for _, i := range byClass[cls] {
			for _, c := range records[i].Calls {
				for _, j := range recsByName[c.Name] {
					addClass(records[j].Sig.Class)
				}
				for _, calleeSub := range tab.triggerCallees[callSub(c)] {
					for _, j := range recsBySubsig[calleeSub] {
						addClass(records[j].Sig.Class)
					}
				}
			}
		}
	}

	// The records are sorted by key, so the roots come out sorted.
	roots := make([]string, 0, seedCount)
	for i := range records {
		if rm[i] {
			roots = append(roots, records[i].Key)
		}
	}
	return targetedClosure{
		roots:    roots,
		demanded: demanded,
		stats: TargetedStats{
			SeedMethods:    seedCount,
			ClosureMethods: len(roots),
			ClosureClasses: len(demanded),
			ClassesDecoded: len(demanded),
			ClassesSkipped: len(byClass) - len(demanded),
		},
	}
}

// prepareBuild runs the demand closure over the skim records, freezing
// a.roots / a.demanded / a.diag.Targeted, and decodes only the demanded classes
// (lazy path) or keeps them (in-memory path — the bodies exist but
// collectAppMethods skips the rest). ClassesSkipped counts bodied classes
// left undecoded (lazy) or unanalyzed (in-memory). Runs inside the "build" stage
// guard: a materialization failure (bytes changed under us — effectively
// impossible) panics into a recorded ScanError.
func (a *analysis) prepareBuild() {
	lazy := a.app.Lazy
	var records []dex.MethodRef
	if lazy != nil {
		records = lazy.MethodRefs()
	} else {
		records = dex.MethodRefsOf(a.app.Program)
	}
	var cl targetedClosure
	if a.opts.oracle {
		cl = wholeProgramClosure(records)
	} else {
		cl = computeTargetedClosure(records, a.reg, a.app.Manifest, a.opts.EnableICC)
	}
	a.roots, a.demanded, a.diag.Targeted = cl.roots, cl.demanded, cl.stats
	if lazy == nil {
		return
	}
	// Records are sorted by key, so classes materialize in the same order
	// every run (Materialize is idempotent).
	for i := range records {
		if cls := records[i].Sig.Class; cl.demanded[cls] {
			if err := lazy.Materialize(cls); err != nil {
				panic(fmt.Sprintf("materialize %s: %v", cls, err))
			}
		}
	}
}

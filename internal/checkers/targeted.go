package checkers

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/android"
	"repro/internal/apimodel"
	"repro/internal/dex"
	"repro/internal/jimple"
)

// This file is the demand-driven closure every scan runs (paper §4.2's
// "targeted analysis": start from the network-API call sites and pull in
// only the code that can matter, instead of scanning the whole app). The
// closure is computed from the dex.Index skim of the lazy open
// (dex.Lazy.Index), before any method body is decoded.
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
	demanded []int32  // demanded class slots of the index, ascending
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
	// seedCallNames are the method names of the registry's target and
	// endpoint APIs: only a call to one of these names can seed.
	seedCallNames map[string]bool
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
		seedCallNames:  make(map[string]bool),
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
		for _, tgt := range lib.Targets {
			t.seedCallNames[tgt.Sig.Name] = true
		}
		for _, ep := range lib.Endpoints {
			t.seedCallNames[ep.Sig.Name] = true
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

// computeTargetedClosure runs the closure rules over the skim index.
// Every rule is a lookup in the index's caller and declarer lists, so
// the work follows the closure, not the app: a record outside it is
// never visited, and a call's signature is built only when its name is
// one a rule can match.
func computeTargetedClosure(x *dex.Index, reg *apimodel.Registry, man *android.Manifest, enableICC bool) targetedClosure {
	tab := closureTablesOf(reg)
	recs := x.Records()
	// Subsignatures repeat heavily across records (every onClick, every
	// run()); render and intern only those the rules can match: a
	// record's own subsig when its name is in ownNames (recSub), a call's
	// when its callee's name is in callNames (callSub). "" elsewhere.
	intern := jimple.NewInterner()
	recSub := make(map[int32]string)
	for name := range tab.ownNames {
		if k, ok := x.NameID(name); ok {
			for _, i := range x.Declarers(k) {
				recSub[i] = intern.SubSigKey(x.MethodSig(i))
			}
		}
	}
	callName := make([]bool, x.NumNames())
	for name := range tab.callNames {
		if k, ok := x.NameID(name); ok {
			callName[k] = true
		}
	}
	callSub := func(c dex.Call) string {
		if !callName[c.Name] {
			return ""
		}
		return intern.SubSigKey(x.Sig(c))
	}
	// callersOf visits the records with a top-level call to a method
	// named by name id k whose call satisfies want.
	callersOf := func(k int32, want func(c dex.Call) bool, visit func(i int32)) {
		for _, i := range x.Callers(k) {
			for _, c := range x.Calls(i) {
				if c.Name == k && want(c) {
					visit(i)
					break
				}
			}
		}
	}
	// callersOfSub visits the records calling the subsig sub.
	callersOfSub := func(sub string, visit func(i int32)) {
		if k, ok := x.NameID(subsigName(sub)); ok {
			callersOf(k, func(c dex.Call) bool { return callSub(c) == sub }, visit)
		}
	}
	// declarersOf visits the records whose own subsig is sub.
	declarersOf := func(sub string, visit func(i int32)) {
		if k, ok := x.NameID(subsigName(sub)); ok {
			for _, i := range x.Declarers(k) {
				if recSub[i] == sub {
					visit(i)
				}
			}
		}
	}

	rm := make([]bool, len(recs))
	var rmList, stack []int32
	add := func(i int32) {
		if !rm[i] {
			rm[i] = true
			rmList = append(rmList, i)
			stack = append(stack, i)
		}
	}

	// Seeds: target-API call sites, registered callback implementations —
	// exactly the methods the pipeline resolves summaries from
	// (discover.go, checker3.go, checker4.go) — plus endpoint-API callers
	// (checker7.go scans them even when no target API is nearby) and
	// network-state handlers (checker5.go).
	for sub := range tab.seedSubsigs {
		declarersOf(sub, add)
	}
	isSeed := func(c dex.Call) bool {
		sig := x.Sig(c)
		if _, _, ok := reg.TargetOf(sig); ok {
			return true
		}
		_, _, ok := reg.EndpointOf(sig)
		return ok
	}
	for name := range tab.seedCallNames {
		if k, ok := x.NameID(name); ok {
			callersOf(k, isSeed, add)
		}
	}
	seedCount := len(rmList)

	// ICC roots: component launchers are callers through ICC edges.
	sawBroadcast := false
	if enableICC {
		callersOfSub(iccStartActivitySubsig, add)
		callersOfSub(iccSendBroadcastSubsig, func(i int32) {
			sawBroadcast = true
			add(i)
		})
	}

	// Backward fixpoint over RM.
	doneName := make([]bool, x.NumNames())
	doneTrigger := make(map[string]bool)
	for len(stack) > 0 {
		i := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if n := recs[i].Name; !doneName[n] {
			doneName[n] = true
			for _, j := range x.Callers(n) {
				add(j)
			}
		}
		for _, trig := range tab.calleeTriggers[recSub[i]] {
			if !doneTrigger[trig] {
				doneTrigger[trig] = true
				callersOfSub(trig, add)
			}
		}
	}

	// Forward class fixpoint over D. Only classes with skim records can
	// be demanded: a class with no bodied methods contributes nothing to
	// any stage.
	demanded := make([]bool, x.NumClasses())
	var cstack []int32
	addClass := func(slot int32) {
		if !demanded[slot] {
			demanded[slot] = true
			cstack = append(cstack, slot)
		}
	}
	addNamed := func(cls string) {
		if slot, ok := x.ClassSlot(cls); ok {
			addClass(slot)
		}
	}
	for _, i := range rmList {
		addClass(recs[i].Class)
	}
	if enableICC {
		// Explicit-intent targets (a superset of what callgraph/icc.go
		// resolves — it additionally requires the setClassName receiver to
		// alias the launched Intent) and, once any broadcast exists, every
		// manifest-declared receiver (icc.go wires sendBroadcast to all of
		// them).
		for i := range recs {
			for _, cls := range x.Intents(int32(i)) {
				addNamed(cls)
			}
		}
		if sawBroadcast {
			for _, rcv := range man.Receivers {
				addNamed(rcv)
			}
		}
	}
	doneCallee := make([]bool, x.NumNames())
	for len(cstack) > 0 {
		slot := cstack[len(cstack)-1]
		cstack = cstack[:len(cstack)-1]
		lo, hi := x.ClassRecords(slot)
		for i := lo; i < hi; i++ {
			for _, c := range x.Calls(i) {
				if !doneCallee[c.Name] {
					doneCallee[c.Name] = true
					for _, j := range x.Declarers(c.Name) {
						addClass(recs[j].Class)
					}
				}
				for _, sub := range tab.triggerCallees[callSub(c)] {
					declarersOf(sub, func(j int32) { addClass(recs[j].Class) })
				}
			}
		}
	}

	return newClosure(x, rmList, demanded, TargetedStats{SeedMethods: seedCount})
}

// newClosure freezes a converged closure: the roots are the RM records'
// keys, sorted, and the demanded slots ascend, which is class-name order.
// Only these keys are ever rendered.
func newClosure(x *dex.Index, rm []int32, demanded []bool, stats TargetedStats) targetedClosure {
	cl := targetedClosure{roots: make([]string, len(rm)), stats: stats}
	for n, i := range rm {
		cl.roots[n] = x.Key(i)
	}
	sort.Strings(cl.roots)
	for slot, ok := range demanded {
		if ok {
			cl.demanded = append(cl.demanded, int32(slot))
		}
	}
	cl.stats.ClosureMethods = len(cl.roots)
	cl.stats.ClosureClasses = len(cl.demanded)
	cl.stats.ClassesDecoded = len(cl.demanded)
	cl.stats.ClassesSkipped = x.NumClasses() - len(cl.demanded)
	return cl
}

// prepareBuild runs the demand closure over the skim index, freezing
// a.index / a.roots / a.demanded / a.diag.Targeted, and decodes the
// bodies of the demanded classes only; ClassesSkipped counts the bodied
// classes left undecoded. Runs inside the "build" stage guard: a
// materialization failure (bytes changed under us — effectively
// impossible) panics into a recorded ScanError.
func (a *analysis) prepareBuild() {
	lazy := a.app.Lazy
	a.index = lazy.Index()
	var cl targetedClosure
	if a.opts.oracle {
		cl = wholeProgramClosure(a.index)
	} else {
		cl = computeTargetedClosure(a.index, a.reg, a.app.Manifest, a.opts.EnableICC)
	}
	a.roots, a.demanded, a.diag.Targeted = cl.roots, cl.demanded, cl.stats
	// Demanded slots ascend in class-name order, so classes materialize
	// in the same order every run (Materialize is idempotent). One call
	// decodes them all, so their bodies share one chunk per slab.
	names := make([]string, len(cl.demanded))
	for i, slot := range cl.demanded {
		names[i] = a.index.ClassName(slot)
	}
	if err := lazy.Materialize(names...); err != nil {
		panic(fmt.Sprintf("materialize: %v", err))
	}
}

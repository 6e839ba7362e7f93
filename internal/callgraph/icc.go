package callgraph

import (
	"sort"

	"repro/internal/android"
	"repro/internal/jimple"
)

// addICCEdges implements the inter-component analysis the paper defers to
// IccTA (§4.7):
//
//   - startActivity(intent): when the Intent's target class is statically
//     known (a setClassName call with a string constant on an alias of
//     the argument), edges are added to the target activity's lifecycle
//     methods, and the target stops being an independent entry point —
//     control provably flows from the launcher.
//   - sendBroadcast(intent): edges to every manifest-declared broadcast
//     receiver's onReceive (intent filters are not modeled; the manifest
//     set is the sound over-approximation).
func (g *Graph) addICCEdges() {
	launchedActivities := make(map[string]bool)
	ids := make([]int32, g.numBodied)
	for i := range ids {
		ids[i] = int32(i)
	}
	sort.Slice(ids, func(i, j int) bool { return g.keys[ids[i]] < g.keys[ids[j]] })
	for _, id := range ids {
		m := g.methods[id]
		for i, s := range m.Body {
			inv, ok := jimple.InvokeOf(s)
			if !ok {
				continue
			}
			switch g.intern.SubSigKey(inv.Callee) {
			case "startActivity(android.content.Intent)void":
				target := g.intentTarget(m, inv)
				if target == "" {
					continue
				}
				if g.addLifecycleEdges(id, i, target, android.ClassActivity) {
					launchedActivities[target] = true
				}
			case "sendBroadcast(android.content.Intent)void":
				if g.Manifest == nil {
					continue
				}
				for _, recv := range g.Manifest.Receivers {
					g.addLifecycleEdges(id, i, recv, android.ClassBroadcastReceiver)
				}
			}
		}
	}
	if len(launchedActivities) == 0 {
		return
	}
	// Explicitly launched activities are no longer independent entries:
	// their facts flow in from the launcher.
	kept, keptIDs := g.entries[:0], g.entryIDs[:0]
	for i, e := range g.entries {
		if launchedActivities[e.Method.Sig.Class] && e.Kind == android.KindActivity {
			continue
		}
		kept, keptIDs = append(kept, e), append(keptIDs, g.entryIDs[i])
	}
	g.entries, g.entryIDs = kept, keptIDs
}

// intentTarget resolves the explicit class name set on the Intent passed
// to an ICC call: it scans the method for setClassName invocations whose
// receiver is the same local as the ICC call's argument and whose first
// argument is a string constant.
func (g *Graph) intentTarget(m *jimple.Method, inv jimple.InvokeExpr) string {
	if len(inv.Args) == 0 {
		return ""
	}
	arg, ok := inv.Args[0].(jimple.Local)
	if !ok {
		return ""
	}
	for _, s := range m.Body {
		call, isInv := jimple.InvokeOf(s)
		if !isInv || call.Base != arg.Name || call.Callee.Name != "setClassName" {
			continue
		}
		if len(call.Args) == 1 {
			if sc, isStr := call.Args[0].(jimple.StrConst); isStr {
				return sc.V
			}
		}
	}
	return ""
}

// addLifecycleEdges links a call site to the body-bearing lifecycle
// methods of the target component class; it reports whether any edge was
// added.
func (g *Graph) addLifecycleEdges(caller int32, site int, target, base string) bool {
	cls := g.H.Program().Class(target)
	if cls == nil || !g.H.IsSubtype(target, base) {
		return false
	}
	added := false
	for _, sub := range android.LifecycleSubsigs(base) {
		cb := cls.Method(sub)
		if cb == nil || !cb.HasBody() {
			continue
		}
		g.addEdge(caller, site, cb, EdgeICC)
		added = true
	}
	return added
}

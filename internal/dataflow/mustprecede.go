package dataflow

import (
	"math/bits"

	"repro/internal/callgraph"
	"repro/internal/cfg"
	"repro/internal/jimple"
)

// GenFunc decides whether executing stmt of m establishes the tracked
// condition (e.g. "a connectivity check has run").
type GenFunc func(m *jimple.Method, stmt int, inv jimple.InvokeExpr) bool

// MustPrecede is an interprocedural, context-insensitive must-analysis:
// it computes, for every statement of every method reachable from the
// app's entry points, whether the tracked condition has definitely been
// established on all paths from every entry point to that statement.
//
// NChecker's Checker 1 instantiates it with "invokes a connectivity-check
// API" to decide whether each network request is guarded (paper §4.4.1:
// "For each path from the entry point to the target API, NChecker checks
// if there is connectivity checking API invoked on the path"). Like the
// paper's implementation it is path-insensitive: the check only needs to
// be invoked, not to govern the branch — which reproduces the false
// negatives §5.3 reports.
type MustPrecede struct {
	cg    *callgraph.Graph
	gen   GenFunc
	cfgOf CFGProvider
	sc    *Scratch
	// fact[id] holds, per statement of method id, "definitely established
	// before stmt"; nil for methods outside the reachable set.
	fact [][]bool
}

// CFGProvider supplies the control-flow graph of a method. Passing a
// memoizing provider lets the analysis share CFGs with other passes of
// the same scan instead of rebuilding them.
type CFGProvider func(*jimple.Method) *cfg.Graph

// NewMustPrecede runs the analysis over all entry points of cg, building
// a fresh CFG per reachable method.
func NewMustPrecede(cg *callgraph.Graph, gen GenFunc) *MustPrecede {
	return NewMustPrecedeWith(nil, cg, gen, nil)
}

// NewMustPrecedeWith is NewMustPrecede with an explicit CFG provider
// (nil falls back to cfg.New), its per-method state carved from sc; a
// nil sc means a fresh Scratch, which nothing resets. The provider must be
// safe for use from this goroutine; results are identical to
// NewMustPrecede.
func NewMustPrecedeWith(sc *Scratch, cg *callgraph.Graph, gen GenFunc, cfgOf CFGProvider) *MustPrecede {
	if sc == nil {
		sc = new(Scratch)
	}
	if cfgOf == nil {
		cfgOf = freshCFG
	}
	mp := &MustPrecede{cg: cg, gen: gen, cfgOf: cfgOf, sc: sc, fact: sc.boolRows.Make(cg.NumIDs())}
	mp.solve()
	return mp
}

// freshCFG builds m's graph in a fresh scratch, the provider of callers
// that pass none.
func freshCFG(m *jimple.Method) *cfg.Graph { return cfg.New(nil, m) }

// FactBefore reports whether the condition definitely holds immediately
// before stmt of the method with the given signature key executes. It
// returns false for methods outside the reachable set.
func (mp *MustPrecede) FactBefore(methodKey string, stmt int) bool {
	id, ok := mp.cg.ID(methodKey)
	return ok && mp.FactAt(id, stmt)
}

// FactAt is FactBefore for the method with graph id id.
func (mp *MustPrecede) FactAt(id int32, stmt int) bool {
	f := mp.fact[id]
	if f == nil || stmt < 0 || stmt >= len(f) {
		return false
	}
	return f[stmt]
}

type mpMethodState struct {
	id      int32
	m       *jimple.Method
	g       *cfg.Graph
	in      []bool // per node
	out     []bool
	gen     []bool // per statement, GenFunc result (pure, so computed once)
	summary bool   // every entry→exit path establishes the condition
	entry   bool   // condition definitely holds at method entry
	isEntry bool   // an entry point: its entry fact is fixed false

	// Pre-resolved interprocedural links, computed once after the state
	// set is fixed so the fixpoint iterations never touch the call graph.
	calls   []mpCall   // EdgeCall out edges, by site
	inCalls []mpInEdge // reachable call sites dispatching into this method
}

// mpCall is one synchronous call edge: the site and the callee's state
// (nil when the callee is outside the state set).
type mpCall struct {
	site   int
	callee *mpMethodState
}

// mpInEdge is one pre-resolved incoming call: the caller's state, the
// site index, and whether the trigger statement itself establishes the
// condition before dispatch (precomputable: GenFunc is pure).
type mpInEdge struct {
	caller *mpMethodState
	site   int
	estab  bool
}

func (mp *MustPrecede) solve() {
	cg := mp.cg
	entries := cg.Entries()
	// Reachable methods from all entries: one closed set, grown per entry.
	reach := cg.NewBitset()
	for i := range entries {
		cg.ReachInto(reach, cg.EntryID(i))
	}
	// One state per reachable method, in id order; byID maps ids to them.
	reachable := 0
	for _, w := range reach {
		reachable += bits.OnesCount64(w)
	}
	states := mp.sc.mpStates.Make(reachable)[:0]
	nodes := 0
	reach.Each(func(id int32) {
		if m := cg.MethodOf(id); m != nil {
			g := mp.cfgOf(m)
			nodes += g.NumNodes()
			states = append(states, mpMethodState{
				id: id, m: m, g: g,
				summary: true, // optimistic; lowered by iteration
				entry:   true,
			})
		}
	})
	byID := mp.sc.mpPtrs.Make(cg.NumIDs())
	// One slab backs every state's in, out and gen rows.
	slab := mp.sc.bools.Make(3 * nodes)
	for i := range states {
		st := &states[i]
		byID[st.id] = st
		nn := st.g.NumNodes()
		st.in, st.out, st.gen = slab[:nn:nn], slab[nn:2*nn:2*nn], slab[2*nn:3*nn:3*nn]
		slab = slab[3*nn:]
		// GenFunc is pure, so its per-statement verdicts are fixed before
		// the fixpoint starts; evaluating it here keeps the checker-supplied
		// closure out of the inner loop.
		for u := 0; u < len(st.m.Body) && u < nn; u++ {
			if inv, ok := jimple.InvokeOf(st.m.Body[u]); ok {
				st.gen[u] = mp.gen(st.m, u, inv)
			}
		}
		// Must-analysis requires optimistic initialization (start at TOP
		// and lower): pessimistic false would be sticky around loop back
		// edges and never recover.
		for j := range st.in {
			st.in[j] = true
			st.out[j] = true
		}
	}
	for i := range entries {
		if st := byID[cg.EntryID(i)]; st != nil {
			st.isEntry, st.entry = true, false
		}
	}
	// Resolve the interprocedural links once: per method the synchronous
	// call sites (genAt) and the incoming calls with their
	// establishes-before-dispatch bit (entryFact). The fixpoint below then
	// runs on direct pointers.
	for i := range states {
		st := &states[i]
		for _, e := range cg.Out(st.id) {
			if e.Kind == callgraph.EdgeCall {
				st.calls = append(st.calls, mpCall{site: e.Site, callee: byID[e.CalleeID]})
			}
		}
		for _, e := range cg.In(st.id) {
			caller := byID[e.CallerID]
			if caller == nil {
				continue
			}
			st.inCalls = append(st.inCalls, mpInEdge{
				caller: caller,
				site:   e.Site,
				estab:  e.Site >= 0 && e.Site < len(caller.gen) && caller.gen[e.Site],
			})
		}
	}
	// Global fixpoint: facts only move true→false, so this terminates, and
	// the greatest fixpoint it reaches does not depend on the visit order.
	for changed := true; changed; {
		changed = false
		for i := range states {
			if mp.solveMethod(&states[i]) {
				changed = true
			}
		}
		// Recompute entry facts from call-site facts.
		for i := range states {
			st := &states[i]
			if st.isEntry {
				continue
			}
			newEntry := entryFact(st)
			if newEntry != st.entry {
				st.entry = newEntry
				changed = true
			}
		}
	}
	for id, st := range byID {
		if st != nil {
			mp.fact[id] = st.in[:len(st.m.Body)]
		}
	}
}

// entryFact is the meet (AND) over the facts holding before every call
// site that can invoke the method. A method never called from the
// reachable region keeps fact true vacuously — it only matters if later
// iterations discover a call.
func entryFact(st *mpMethodState) bool {
	for _, c := range st.inCalls {
		if !c.caller.in[c.site] && !c.estab {
			return false
		}
	}
	return true
}

// solveMethod runs the intraprocedural forward must-analysis for one
// method given the current callee summaries; reports whether anything
// changed.
func (mp *MustPrecede) solveMethod(st *mpMethodState) bool {
	g := st.g
	n := g.NumNodes()
	changed := false
	// Iterate locally to a fixpoint (bodies are small).
	for localChange := true; localChange; {
		localChange = false
		next := 0 // first call edge at or after node u
		for u := 0; u < n; u++ {
			// in = meet (AND) over predecessor outs; the entry node also
			// meets the interprocedural entry fact. Unreachable nodes are
			// vacuously true, which cannot lower any reachable fact.
			in := true
			if u == 0 {
				in = st.entry
			}
			for _, p := range g.Preds(u) {
				in = in && st.out[p]
			}
			for next < len(st.calls) && st.calls[next].site < u {
				next++
			}
			out := in || genAt(st, u, next)
			if in != st.in[u] {
				st.in[u] = in
				localChange, changed = true, true
			}
			if out != st.out[u] {
				st.out[u] = out
				localChange, changed = true, true
			}
		}
	}
	newSummary := st.out[g.Exit()]
	if newSummary != st.summary {
		st.summary = newSummary
		changed = true
	}
	return changed
}

// genAt decides whether node u establishes the condition: either its
// statement matches GenFunc directly, or it is a call site whose every
// (synchronously) dispatched target has a true summary. st.calls[next:]
// are the call edges at sites u and later.
func genAt(st *mpMethodState, u, next int) bool {
	if u >= len(st.m.Body) {
		return false
	}
	if st.gen[u] {
		return true
	}
	// Call into app methods: condition established if every possible
	// synchronous callee establishes it on all its paths.
	found := false
	for _, c := range st.calls[next:] {
		if c.site != u {
			break
		}
		if c.callee == nil || !c.callee.summary {
			return false
		}
		found = true
	}
	return found
}

// Package callgraph constructs a lifecycle-aware call graph for Android
// apps over the jimple IR, in the role FlowDroid plays for the real
// NChecker: it discovers framework-invoked entry points (component
// lifecycle methods and listener callbacks), resolves calls with
// class-hierarchy analysis, follows the asynchronous dispatch constructs
// apps route network work through (AsyncTask, Handler, Thread, Timer,
// listener registration), and answers the reachability and call-stack
// queries the checkers and warning reports need.
package callgraph

import (
	"sort"

	"repro/internal/android"
	"repro/internal/hierarchy"
	"repro/internal/jimple"
)

// EdgeKind distinguishes how an edge was discovered.
type EdgeKind uint8

const (
	// EdgeCall is a direct invocation resolved by CHA.
	EdgeCall EdgeKind = iota
	// EdgeAsync is a framework-mediated dispatch (AsyncTask.execute →
	// doInBackground, Handler.post → run, setOnClickListener → onClick, …).
	EdgeAsync
	// EdgeICC is an inter-component communication edge (startActivity →
	// target lifecycle, sendBroadcast → receiver onReceive), produced
	// only when Options.EnableICC is set — the IccTA integration the
	// paper lists as future work (§4.7).
	EdgeICC
)

func (k EdgeKind) String() string {
	switch k {
	case EdgeAsync:
		return "async"
	case EdgeICC:
		return "icc"
	}
	return "call"
}

// Edge is one call-graph edge, anchored at a statement in the caller.
type Edge struct {
	Caller jimple.Sig
	Site   int // statement index in the caller's body
	Callee jimple.Sig
	Kind   EdgeKind

	// callerKey/calleeKey cache the canonical Sig keys. addEdge fills them
	// from the build's intern table, so graph consumers never re-render a
	// key per edge visit. Edges constructed outside the builder (tests)
	// leave them empty; the accessors fall back to computing the key.
	callerKey string
	calleeKey string
}

// CallerKey returns e.Caller.Key() without re-rendering it for edges that
// came out of a built graph.
func (e Edge) CallerKey() string {
	if e.callerKey != "" {
		return e.callerKey
	}
	return e.Caller.Key()
}

// CalleeKey returns e.Callee.Key() without re-rendering it for edges that
// came out of a built graph.
func (e Edge) CalleeKey() string {
	if e.calleeKey != "" {
		return e.calleeKey
	}
	return e.Callee.Key()
}

// Entry is a framework-invoked entry point.
type Entry struct {
	Method *jimple.Method
	// Component is the class whose kind determines the request context;
	// for inner-class listeners this is the outer component.
	Component string
	Kind      android.ComponentKind
	// Declared reports whether the component appears in the manifest.
	Declared bool
}

// Graph is the app call graph.
type Graph struct {
	H        *hierarchy.Hierarchy
	Manifest *android.Manifest

	entries []Entry
	out     map[string][]Edge // caller Sig.Key -> outgoing edges
	in      map[string][]Edge // callee Sig.Key -> incoming edges
	methods map[string]*jimple.Method

	// intern deduplicates key strings during construction; every edge and
	// node key is allocated once per graph, not once per reference.
	intern *jimple.Interner
}

// Options tunes graph construction.
type Options struct {
	// DeclaredDispatchOnly disables the CHA subtree search, resolving
	// virtual calls against the declared type only. This is the ablation
	// baseline; it misses overrides.
	DeclaredDispatchOnly bool
	// EnableICC follows inter-component communication: startActivity
	// calls whose Intent names an explicit target class produce edges to
	// that activity's lifecycle methods (and the target stops being an
	// independent entry point), and sendBroadcast calls produce edges to
	// every manifest-declared receiver's onReceive. Off by default to
	// match the paper's published tool; turning it on removes the
	// paper's Table 9 false positives.
	EnableICC bool
}

// Build constructs the call graph of the program underlying h. manifest
// may be nil.
func Build(h *hierarchy.Hierarchy, manifest *android.Manifest) *Graph {
	return BuildWith(h, manifest, Options{})
}

// BuildWith is Build with explicit options.
func BuildWith(h *hierarchy.Hierarchy, manifest *android.Manifest, opts Options) *Graph {
	return build(h, manifest, opts, h.Program().Classes())
}

// Base is the part of call-graph construction that depends on a frozen
// base layer alone: the base classes that carry a bodied method, which
// are the only base classes that can contribute methods or entry points
// to an app's graph. The entries themselves are derived per app, since an
// entry's component kind and manifest declaration depend on the app.
type Base struct {
	h       *hierarchy.Hierarchy
	classes []*jimple.Class // sorted by name
}

// NewBase precomputes the call-graph part of the flat base hierarchy h.
func NewBase(h *hierarchy.Hierarchy) *Base {
	if h.Base() != nil {
		panic("callgraph: base hierarchy is itself an overlay")
	}
	b := &Base{h: h}
	for _, c := range h.Program().Classes() {
		if hasConcreteMethod(c) {
			b.classes = append(b.classes, c)
		}
	}
	return b
}

// NumClasses returns the number of base classes with a bodied method.
func (b *Base) NumClasses() int { return len(b.classes) }

// Build constructs the call graph of the overlay hierarchy h, which must
// sit on b's hierarchy. It walks only h's own classes whose members are
// decoded and b's bodied classes that the overlay does not shadow, and
// yields the same graph BuildWith would over the flat merge of the
// layers: a class whose members are still deferred holds no body, so it
// adds no method, entry or edge.
func (b *Base) Build(h *hierarchy.Hierarchy, manifest *android.Manifest, opts Options) *Graph {
	if h.Base() != b.h {
		panic("callgraph: overlay hierarchy does not sit on this base")
	}
	prog := h.Program()
	var classes []*jimple.Class
	prog.EachOwnHeader(func(c *jimple.Class) {
		if !c.MembersDeferred() {
			classes = append(classes, c)
		}
	})
	for _, c := range b.classes {
		if prog.Class(c.Name) == c {
			classes = append(classes, c)
		}
	}
	return build(h, manifest, opts, classes)
}

// build constructs the graph from classes, the program's classes that may
// hold a bodied method, in any order.
func build(h *hierarchy.Hierarchy, manifest *android.Manifest, opts Options, classes []*jimple.Class) *Graph {
	g := &Graph{
		H:        h,
		Manifest: manifest,
		out:      make(map[string][]Edge),
		in:       make(map[string][]Edge),
		methods:  make(map[string]*jimple.Method),
		intern:   jimple.NewInterner(),
	}
	for _, c := range classes {
		for _, m := range c.Methods {
			if m.HasBody() {
				g.methods[g.intern.SigKey(m.Sig)] = m
			}
		}
	}
	g.discoverEntries(classes)
	for _, m := range g.methods {
		g.addEdgesFrom(m, opts)
	}
	if opts.EnableICC {
		g.addICCEdges()
	}
	for _, edges := range g.out {
		sort.Slice(edges, func(i, j int) bool {
			if edges[i].Site != edges[j].Site {
				return edges[i].Site < edges[j].Site
			}
			return edges[i].calleeKey < edges[j].calleeKey
		})
	}
	sort.Slice(g.entries, func(i, j int) bool {
		return g.intern.SigKey(g.entries[i].Method.Sig) < g.intern.SigKey(g.entries[j].Method.Sig)
	})
	g.intern = nil // construction done; release the table
	return g
}

func (g *Graph) discoverEntries(classes []*jimple.Class) {
	bases := android.ComponentBases()
	ifaces := android.ListenerIfaces()
	var seen []string // entry keys already added for the current class
	for _, c := range classes {
		if !hasConcreteMethod(c) {
			continue
		}
		seen = seen[:0]
		add := func(m *jimple.Method) {
			if m == nil || !m.HasBody() || m.Sig.Class != c.Name {
				return
			}
			mk := g.intern.SigKey(m.Sig)
			for _, k := range seen {
				if k == mk {
					return
				}
			}
			seen = append(seen, mk)
			comp := jimple.OuterClass(c.Name)
			kind := android.KindOf(g.H, c.Name)
			declared := false
			if g.Manifest != nil {
				declared = g.Manifest.DeclaresActivity(comp) ||
					g.Manifest.DeclaresService(comp) ||
					g.Manifest.DeclaresReceiver(comp)
			}
			g.entries = append(g.entries, Entry{Method: m, Component: comp, Kind: kind, Declared: declared})
		}
		for _, base := range bases {
			if !g.H.IsSubtype(c.Name, base) {
				continue
			}
			for _, sub := range android.LifecycleSubsigs(base) {
				add(c.Method(sub))
			}
		}
		for _, iface := range ifaces {
			if !g.H.IsSubtype(c.Name, iface) {
				continue
			}
			for _, sub := range android.ListenerSubsigs(iface) {
				add(c.Method(sub))
			}
		}
	}
}

func hasConcreteMethod(c *jimple.Class) bool {
	for _, m := range c.Methods {
		if m.HasBody() {
			return true
		}
	}
	return false
}

func (g *Graph) addEdgesFrom(m *jimple.Method, opts Options) {
	for i, s := range m.Body {
		inv, ok := jimple.InvokeOf(s)
		if !ok {
			continue
		}
		var targets []*jimple.Method
		if opts.DeclaredDispatchOnly {
			targets = g.H.DeclaredDispatch(inv)
		} else {
			targets = g.H.Dispatch(inv)
		}
		for _, t := range targets {
			g.addEdge(Edge{Caller: m.Sig, Site: i, Callee: t.Sig, Kind: EdgeCall})
		}
		g.addAsyncEdges(m, i, inv)
	}
}

// addAsyncEdges consults the framework async-dispatch table: a call like
// task.execute() or handler.post(r) creates edges to the callbacks defined
// on the dispatch target's declared type.
func (g *Graph) addAsyncEdges(m *jimple.Method, site int, inv jimple.InvokeExpr) {
	invSub := g.intern.SubSigKey(inv.Callee)
	for _, d := range android.AsyncDispatches() {
		if invSub != d.TriggerSubsig {
			continue
		}
		if !g.H.IsSubtype(inv.Callee.Class, d.TriggerClass) &&
			!g.H.IsSubtype(d.TriggerClass, inv.Callee.Class) {
			continue
		}
		targetType := g.asyncTargetType(m, inv, d.ArgIndex)
		if targetType == "" {
			continue
		}
		for _, sub := range d.CalleeSubsigs {
			cb := g.H.LookupMethod(targetType, sub)
			if cb == nil || !cb.HasBody() {
				// The declared type may be abstract; search subtypes.
				for _, st := range g.H.SubtypesOf(targetType) {
					if c := g.H.Program().Class(st); c != nil {
						if cm := c.Method(sub); cm != nil && cm.HasBody() {
							cb = cm
							break
						}
					}
				}
			}
			if cb != nil && cb.HasBody() {
				g.addEdge(Edge{Caller: m.Sig, Site: site, Callee: cb.Sig, Kind: EdgeAsync})
			}
		}
	}
}

func (g *Graph) asyncTargetType(m *jimple.Method, inv jimple.InvokeExpr, argIndex int) string {
	var name string
	if argIndex < 0 {
		name = inv.Base
	} else {
		if argIndex >= len(inv.Args) {
			return ""
		}
		l, ok := inv.Args[argIndex].(jimple.Local)
		if !ok {
			return ""
		}
		name = l.Name
	}
	return m.LocalType(name)
}

func (g *Graph) addEdge(e Edge) {
	e.callerKey = g.intern.SigKey(e.Caller)
	e.calleeKey = g.intern.SigKey(e.Callee)
	for _, prev := range g.out[e.callerKey] {
		if prev.Site == e.Site && prev.Kind == e.Kind && prev.calleeKey == e.calleeKey {
			return
		}
	}
	g.out[e.callerKey] = append(g.out[e.callerKey], e)
	g.in[e.calleeKey] = append(g.in[e.calleeKey], e)
}

// Entries returns the discovered entry points (sorted by signature).
func (g *Graph) Entries() []Entry { return g.entries }

// Method returns the body-bearing method with the given signature key.
func (g *Graph) Method(key string) *jimple.Method { return g.methods[key] }

// NumMethods returns the count of body-bearing methods.
func (g *Graph) NumMethods() int { return len(g.methods) }

// NumEdges returns the total edge count.
func (g *Graph) NumEdges() int {
	n := 0
	for _, es := range g.out {
		n += len(es)
	}
	return n
}

// OutEdges returns the outgoing edges of the method with signature key.
func (g *Graph) OutEdges(key string) []Edge { return g.out[key] }

// InEdges returns the incoming edges of the method with signature key.
func (g *Graph) InEdges(key string) []Edge { return g.in[key] }

// ReachableFrom returns the set of method keys reachable from start
// (inclusive).
func (g *Graph) ReachableFrom(start jimple.Sig) map[string]bool {
	k0 := start.Key()
	seen := map[string]bool{k0: true}
	stack := []string{k0}
	for len(stack) > 0 {
		k := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, e := range g.out[k] {
			tk := e.CalleeKey()
			if !seen[tk] {
				seen[tk] = true
				stack = append(stack, tk)
			}
		}
	}
	return seen
}

// EntriesReaching returns the entry points from which the method with the
// given signature key is reachable.
func (g *Graph) EntriesReaching(targetKey string) []Entry {
	var out []Entry
	for _, e := range g.entries {
		if g.ReachableFrom(e.Method.Sig)[targetKey] {
			out = append(out, e)
		}
	}
	return out
}

// Frame is one element of a call stack: a method and the statement index
// of the call site within it (or -1 for the innermost frame).
type Frame struct {
	Method jimple.Sig
	Site   int
}

// CallStack returns a shortest entry→target path as a stack of frames,
// outermost first; nil if the target is unreachable from entry. The final
// frame is the target method itself with Site = -1.
func (g *Graph) CallStack(entry jimple.Sig, targetKey string) []Frame {
	type step struct {
		key  string
		prev int // index into visited order
		via  Edge
	}
	startKey := entry.Key()
	if startKey == targetKey {
		return []Frame{{Method: entry, Site: -1}}
	}
	visited := []step{{key: startKey, prev: -1}}
	index := map[string]int{startKey: 0}
	for qi := 0; qi < len(visited); qi++ {
		cur := visited[qi]
		for _, e := range g.out[cur.key] {
			tk := e.CalleeKey()
			if _, seen := index[tk]; seen {
				continue
			}
			index[tk] = len(visited)
			visited = append(visited, step{key: tk, prev: qi, via: e})
			if tk == targetKey {
				// Reconstruct.
				var rev []Frame
				i := len(visited) - 1
				rev = append(rev, Frame{Method: visited[i].via.Callee, Site: -1})
				for i >= 0 && visited[i].prev >= 0 {
					rev = append(rev, Frame{Method: visited[i].via.Caller, Site: visited[i].via.Site})
					i = visited[i].prev
				}
				// Reverse to outermost-first.
				for a, b := 0, len(rev)-1; a < b; a, b = a+1, b-1 {
					rev[a], rev[b] = rev[b], rev[a]
				}
				return rev
			}
		}
	}
	return nil
}

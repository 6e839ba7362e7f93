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
	"math/bits"
	"slices"
	"sort"
	"sync"

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
	// CallerID and CalleeID are the endpoints' method ids in the graph
	// that built the edge (see Graph.Key).
	CallerID, CalleeID int32
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
//
// Every body-bearing method of the graph has a dense method id, assigned
// in first-sighting order over the build's classes; a method whose key
// repeats shares the id of its first sighting, and the last-declared
// method of a key is the one the id denotes. The analyses above the graph
// key their per-method state by id and read keys from the key table, so
// no kernel renders a signature or hashes a key string.
type Graph struct {
	H        *hierarchy.Hierarchy
	Manifest *android.Manifest

	entries  []Entry
	entryIDs []int32 // parallel to entries

	keys    []string         // id -> Sig key
	methods []*jimple.Method // id -> body-bearing method
	out     [][]Edge         // caller id -> outgoing edges, by (site, callee key)
	in      [][]Edge         // callee id -> incoming edges, in the order added
	// byMethod numbers the build's body-bearing methods by pointer, so
	// resolving a dispatch target to its id renders no key.
	byMethod  map[*jimple.Method]int32
	numBodied int // ids below it have a method
	// ids maps keys to ids for the string API, built on first use.
	idsOnce sync.Once
	ids     map[string]int32

	// intern deduplicates the callee subsignatures during construction:
	// each is allocated once per graph, not once per call site.
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
// sit on b's hierarchy. It walks only the own classes a lookup has built
// (jimple.Program.EachBuilt) and b's bodied classes that the overlay does
// not shadow, and yields the same graph BuildWith would over the flat
// merge of the layers: a class of a lazily opened program that no lookup
// has reached holds no body, so it adds no method, entry or edge.
func (b *Base) Build(h *hierarchy.Hierarchy, manifest *android.Manifest, opts Options) *Graph {
	if h.Base() != b.h {
		panic("callgraph: overlay hierarchy does not sit on this base")
	}
	prog := h.Program()
	var classes []*jimple.Class
	prog.EachBuilt(func(c *jimple.Class) { classes = append(classes, c) })
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
		byMethod: make(map[*jimple.Method]int32),
		intern:   jimple.NewInterner(),
	}
	g.number(classes)
	g.out = make([][]Edge, len(g.keys))
	g.in = make([][]Edge, len(g.keys))
	g.discoverEntries(classes)
	for id := range g.keys {
		g.addEdgesFrom(int32(id), opts)
	}
	if opts.EnableICC {
		g.addICCEdges()
	}
	for _, edges := range g.out {
		g.sortEdges(edges)
	}
	sort.Sort(&entrySorter{g})
	g.intern = nil // construction done; release the table
	return g
}

// number assigns the method ids: one per distinct key among the classes'
// body-bearing methods, in first-sighting order, the last-declared method
// of a repeated key winning the id's method slot.
func (g *Graph) number(classes []*jimple.Class) {
	first := make(map[string]int32)
	var buf []byte
	for _, c := range classes {
		for _, m := range c.Methods {
			if !m.HasBody() {
				continue
			}
			buf = m.Sig.AppendKey(buf[:0])
			id, dup := first[string(buf)]
			if !dup {
				k := string(buf)
				id = int32(len(g.keys))
				first[k] = id
				g.keys = append(g.keys, k)
				g.methods = append(g.methods, m)
			}
			g.methods[id] = m
			g.byMethod[m] = id
		}
	}
	g.numBodied = len(g.keys)
}

// idFor returns the id of m, a dispatch target. Targets are body-bearing
// methods of the build's classes, so the pointer lookup always hits in a
// well-formed program; a miss falls back to the key, and a key the graph
// does not hold becomes a new id with no method and no outgoing edges.
func (g *Graph) idFor(m *jimple.Method) int32 {
	if id, ok := g.byMethod[m]; ok {
		return id
	}
	k := g.intern.SigKey(m.Sig)
	for id, have := range g.keys {
		if have == k {
			return int32(id)
		}
	}
	id := int32(len(g.keys))
	g.keys = append(g.keys, k)
	g.methods = append(g.methods, nil)
	g.out = append(g.out, nil)
	g.in = append(g.in, nil)
	return id
}

// sortEdges orders one method's outgoing edges by (site, callee key).
// Nearly every list has at most twelve edges; those are insertion-sorted
// in place, which is also what sort.Slice does with them, so the order
// is sort.Slice's without its allocation.
func (g *Graph) sortEdges(edges []Edge) {
	less := func(a, b *Edge) bool {
		if a.Site != b.Site {
			return a.Site < b.Site
		}
		return g.keys[a.CalleeID] < g.keys[b.CalleeID]
	}
	if len(edges) > 12 {
		sort.Slice(edges, func(i, j int) bool { return less(&edges[i], &edges[j]) })
		return
	}
	for i := 1; i < len(edges); i++ {
		for j := i; j > 0 && less(&edges[j], &edges[j-1]); j-- {
			edges[j], edges[j-1] = edges[j-1], edges[j]
		}
	}
}

// entrySorter orders the entries, and their ids with them, by key.
type entrySorter struct{ g *Graph }

func (s *entrySorter) Len() int { return len(s.g.entries) }

func (s *entrySorter) Swap(i, j int) {
	g := s.g
	g.entries[i], g.entries[j] = g.entries[j], g.entries[i]
	g.entryIDs[i], g.entryIDs[j] = g.entryIDs[j], g.entryIDs[i]
}

func (s *entrySorter) Less(i, j int) bool {
	return s.g.keys[s.g.entryIDs[i]] < s.g.keys[s.g.entryIDs[j]]
}

// discoverEntries finds the lifecycle and listener entry points of each
// class. A class's component kind and manifest declaration are resolved
// once, when its first entry is found, and callbacks are looked up in the
// hierarchy's subsignature index.
func (g *Graph) discoverEntries(classes []*jimple.Class) {
	bases := android.ComponentBases()
	ifaces := android.ListenerIfaces()
	var seen []int32  // entry ids already added for the current class
	var sups []string // the current class and its supertypes
	for _, c := range classes {
		if !hasConcreteMethod(c) {
			continue
		}
		seen = seen[:0]
		sups = g.H.AppendSupertypes(sups[:0], c.Name)
		var comp string
		var kind android.ComponentKind
		var declared bool
		add := func(m *jimple.Method) {
			if m == nil || !m.HasBody() || m.Sig.Class != c.Name {
				return
			}
			id := g.byMethod[m]
			for _, k := range seen {
				if k == id {
					return
				}
			}
			if len(seen) == 0 {
				comp = jimple.OuterClass(c.Name)
				kind = android.KindOf(g.H, c.Name)
				if g.Manifest != nil {
					declared = g.Manifest.DeclaresActivity(comp) ||
						g.Manifest.DeclaresService(comp) ||
						g.Manifest.DeclaresReceiver(comp)
				}
			}
			seen = append(seen, id)
			g.entries = append(g.entries, Entry{Method: m, Component: comp, Kind: kind, Declared: declared})
			g.entryIDs = append(g.entryIDs, id)
		}
		for _, base := range bases {
			if !slices.Contains(sups, base) {
				continue
			}
			for _, sub := range android.LifecycleSubsigs(base) {
				add(g.H.DeclaredMethod(c.Name, sub))
			}
		}
		for _, iface := range ifaces {
			if !slices.Contains(sups, iface) {
				continue
			}
			for _, sub := range android.ListenerSubsigs(iface) {
				add(g.H.DeclaredMethod(c.Name, sub))
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

func (g *Graph) addEdgesFrom(caller int32, opts Options) {
	m := g.methods[caller]
	if m == nil {
		return
	}
	for i, s := range m.Body {
		inv, ok := jimple.InvokeOf(s)
		if !ok {
			continue
		}
		sub := g.intern.SubSigKey(inv.Callee)
		var targets []*jimple.Method
		if opts.DeclaredDispatchOnly {
			targets = g.H.DeclaredDispatch(inv, sub)
		} else {
			targets = g.H.Dispatch(inv, sub)
		}
		for _, t := range targets {
			g.addEdge(caller, i, t, EdgeCall)
		}
		g.addAsyncEdges(caller, m, i, inv, sub)
	}
}

// addAsyncEdges consults the framework async-dispatch table: a call like
// task.execute() or handler.post(r) creates edges to the callbacks defined
// on the dispatch target's declared type. invSub is the invocation's
// interned callee subsignature.
func (g *Graph) addAsyncEdges(caller int32, m *jimple.Method, site int, inv jimple.InvokeExpr, invSub string) {
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
				g.addEdge(caller, site, cb, EdgeAsync)
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

// addEdge adds the edge caller@site → callee of the given kind, once.
func (g *Graph) addEdge(caller int32, site int, callee *jimple.Method, kind EdgeKind) {
	to := g.idFor(callee)
	for _, prev := range g.out[caller] {
		if prev.Site == site && prev.Kind == kind && prev.CalleeID == to {
			return
		}
	}
	e := Edge{Caller: g.methods[caller].Sig, Site: site, Callee: callee.Sig, Kind: kind, CallerID: caller, CalleeID: to}
	g.out[caller] = append(g.out[caller], e)
	g.in[to] = append(g.in[to], e)
}

// Entries returns the discovered entry points (sorted by signature).
func (g *Graph) Entries() []Entry { return g.entries }

// EntryID returns the method id of Entries()[i].
func (g *Graph) EntryID(i int) int32 { return g.entryIDs[i] }

// NumIDs returns the number of method ids; ids run from 0 to NumIDs()-1.
func (g *Graph) NumIDs() int { return len(g.keys) }

// Key returns the signature key of method id.
func (g *Graph) Key(id int32) string { return g.keys[id] }

// MethodOf returns the body-bearing method of id, nil for a callee that
// has none.
func (g *Graph) MethodOf(id int32) *jimple.Method { return g.methods[id] }

// IDOf returns the id of m, one of the graph's body-bearing methods.
func (g *Graph) IDOf(m *jimple.Method) (int32, bool) {
	id, ok := g.byMethod[m]
	return id, ok
}

// ID returns the id of the method with the given signature key.
func (g *Graph) ID(key string) (int32, bool) {
	g.idsOnce.Do(func() {
		g.ids = make(map[string]int32, len(g.keys))
		for id, k := range g.keys {
			g.ids[k] = int32(id)
		}
	})
	id, ok := g.ids[key]
	return id, ok
}

// Out returns the outgoing edges of method id.
func (g *Graph) Out(id int32) []Edge { return g.out[id] }

// In returns the incoming edges of method id.
func (g *Graph) In(id int32) []Edge { return g.in[id] }

// Method returns the body-bearing method with the given signature key.
func (g *Graph) Method(key string) *jimple.Method {
	if id, ok := g.ID(key); ok {
		return g.methods[id]
	}
	return nil
}

// NumMethods returns the count of body-bearing methods.
func (g *Graph) NumMethods() int { return g.numBodied }

// NumEdges returns the total edge count.
func (g *Graph) NumEdges() int {
	n := 0
	for _, es := range g.out {
		n += len(es)
	}
	return n
}

// OutEdges returns the outgoing edges of the method with signature key.
func (g *Graph) OutEdges(key string) []Edge {
	if id, ok := g.ID(key); ok {
		return g.out[id]
	}
	return nil
}

// InEdges returns the incoming edges of the method with signature key.
func (g *Graph) InEdges(key string) []Edge {
	if id, ok := g.ID(key); ok {
		return g.in[id]
	}
	return nil
}

// Bitset is a set of method ids.
type Bitset []uint64

// NewBitset returns an empty set over the ids of g.
func (g *Graph) NewBitset() Bitset { return make(Bitset, (len(g.keys)+63)/64) }

// NewBitsets returns n empty sets over the ids of g, backed by one slab.
func (g *Graph) NewBitsets(n int) []Bitset {
	w := (len(g.keys) + 63) / 64
	slab := make(Bitset, n*w)
	out := make([]Bitset, n)
	for i := range out {
		out[i] = slab[i*w : (i+1)*w : (i+1)*w]
	}
	return out
}

// Has reports whether id is in the set.
func (b Bitset) Has(id int32) bool { return b[id>>6]&(1<<(id&63)) != 0 }

// Add inserts id and reports whether it was absent.
func (b Bitset) Add(id int32) bool {
	w, bit := id>>6, uint64(1)<<(id&63)
	if b[w]&bit != 0 {
		return false
	}
	b[w] |= bit
	return true
}

// Each calls fn on every member in ascending order.
func (b Bitset) Each(fn func(int32)) {
	for i, w := range b {
		for w != 0 {
			t := bits.TrailingZeros64(w)
			fn(int32(i*64 + t))
			w &= w - 1
		}
	}
}

// Reach returns the set of method ids reachable from id (inclusive).
func (g *Graph) Reach(id int32) Bitset {
	seen := g.NewBitset()
	g.ReachInto(seen, id)
	return seen
}

// ReachInto adds to seen every id reachable from id that seen does not
// hold yet, stopping at members: seen is left closed under reachability
// when it was before the call.
func (g *Graph) ReachInto(seen Bitset, id int32) {
	if !seen.Add(id) {
		return
	}
	var buf [32]int32
	stack := append(buf[:0], id)
	for len(stack) > 0 {
		k := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for i := range g.out[k] {
			if to := g.out[k][i].CalleeID; seen.Add(to) {
				stack = append(stack, to)
			}
		}
	}
}

// ReachableFrom returns the set of method keys reachable from start
// (inclusive).
func (g *Graph) ReachableFrom(start jimple.Sig) map[string]bool {
	k0 := start.Key()
	id, ok := g.ID(k0)
	if !ok {
		return map[string]bool{k0: true}
	}
	out := make(map[string]bool)
	g.Reach(id).Each(func(r int32) { out[g.keys[r]] = true })
	return out
}

// Frame is one element of a call stack: a method and the statement index
// of the call site within it (or -1 for the innermost frame).
type Frame struct {
	Method jimple.Sig
	Key    string // Method's signature key
	Site   int
}

// CallStack returns a shortest entry→target path as a stack of frames,
// outermost first; nil if the target is unreachable from entry. The final
// frame is the target method itself with Site = -1.
func (g *Graph) CallStack(entry jimple.Sig, targetKey string) []Frame {
	startKey := entry.Key()
	if startKey == targetKey {
		return []Frame{{Method: entry, Key: startKey, Site: -1}}
	}
	from, ok := g.ID(startKey)
	to, ok2 := g.ID(targetKey)
	if !ok || !ok2 {
		return nil
	}
	return g.CallStackIDs(from, to)
}

// CallStackIDs is CallStack between method ids: a breadth-first search
// over out edges in their fixed order, so the path is the same one every
// time.
func (g *Graph) CallStackIDs(from, to int32) []Frame {
	if from == to {
		return []Frame{{Method: g.methods[from].Sig, Key: g.keys[from], Site: -1}}
	}
	type step struct {
		prev int32 // index into visited order
		via  *Edge
	}
	visited := []step{{prev: -1}}
	seen := g.NewBitset()
	seen.Add(from)
	cur := from
	for qi := 0; qi < len(visited); qi++ {
		if qi > 0 {
			cur = visited[qi].via.CalleeID
		}
		for i := range g.out[cur] {
			e := &g.out[cur][i]
			if !seen.Add(e.CalleeID) {
				continue
			}
			visited = append(visited, step{prev: int32(qi), via: e})
			if e.CalleeID != to {
				continue
			}
			// Reconstruct, innermost first.
			i := len(visited) - 1
			rev := []Frame{{Method: e.Callee, Key: g.keys[to], Site: -1}}
			for visited[i].prev >= 0 {
				via := visited[i].via
				rev = append(rev, Frame{Method: via.Caller, Key: g.keys[via.CallerID], Site: via.Site})
				i = int(visited[i].prev)
			}
			// Reverse to outermost-first.
			for a, b := 0, len(rev)-1; a < b; a, b = a+1, b-1 {
				rev[a], rev[b] = rev[b], rev[a]
			}
			return rev
		}
	}
	return nil
}

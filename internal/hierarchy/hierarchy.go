// Package hierarchy builds the class-hierarchy graph of a jimple.Program
// and answers the subtype and dispatch queries that call-graph
// construction (class-hierarchy analysis, CHA) requires.
package hierarchy

import (
	"slices"
	"sort"
	"sync"

	"repro/internal/jimple"
)

// Hierarchy is an immutable view of a program's class hierarchy.
//
// A hierarchy is either flat, indexing every class of its program
// eagerly (New), or an overlay over a frozen base hierarchy (NewOverlay).
// An overlay indexes nothing up front: an own class's supertypes are read
// from its *Class, its subsignature map is built the first time a lookup
// reaches it, and the own layer's reverse edges are the program's
// (jimple.Program.EachOwnSub); every query falls through to the base for
// the rest. The base is only read, so one base can sit under any number
// of concurrent overlays.
type Hierarchy struct {
	prog *jimple.Program

	// base is the hierarchy beneath an overlay, nil for a flat one.
	// shadows reports whether an own class hides a base class of the same
	// name; only then must base subtype lists be filtered.
	base    *Hierarchy
	shadows bool

	// subsOf maps a type to its direct subclasses and implementers, sorted;
	// only a flat hierarchy fills it.
	subsOf map[string][]string
	// supersOf maps each class of a flat hierarchy to its direct superclass
	// and interfaces, sorted; an overlay reads them from its own *Class.
	supersOf map[string][]string

	// methodIdx maps a defined class to its methods by subsignature (first
	// declaration wins, matching Class.Method's linear scan), and superOf
	// (flat only) maps it to its superclass name. Together they make method
	// lookup a pair of map probes instead of a linear subsignature render
	// per declared method per query. An overlay adds an own class to
	// methodIdx the first time a lookup reaches it.
	methodIdx map[string]map[string]*jimple.Method
	superOf   map[string]string

	// mu guards an overlay's lazily built state — methodIdx and intern —
	// and every hierarchy's dispatchMemo, so a Hierarchy stays safe to
	// share between goroutines. A flat hierarchy's other maps are
	// complete at construction and read without it; an overlay never writes
	// to its base.
	mu sync.Mutex
	// intern dedups the subsignature keys of an overlay's indexed classes.
	intern *jimple.Interner
	// dispatchMemo caches CHA dispatch results per (kind-band, declared
	// class, subsignature); the same framework callee is invoked from many
	// sites, and each re-resolution used to redo the subtree walk and
	// re-render every candidate's key. An overlay keeps its own memo.
	dispatchMemo map[dispatchKey][]*jimple.Method
	// sc is the scratch an overlay keeps its indexes in; nil for a flat
	// hierarchy.
	sc *Scratch
}

type dispatchKey struct {
	virtual bool
	class   string
	subsig  string
}

// New indexes the hierarchy of p. Types referenced but not defined in p
// (phantom classes) participate with no members and no known supertypes.
func New(p *jimple.Program) *Hierarchy {
	n := p.NumClasses()
	h := &Hierarchy{
		prog:         p,
		subsOf:       make(map[string][]string),
		supersOf:     make(map[string][]string, n),
		methodIdx:    make(map[string]map[string]*jimple.Method, n),
		superOf:      make(map[string]string, n),
		dispatchMemo: make(map[dispatchKey][]*jimple.Method),
	}
	intern := jimple.NewInterner()
	for _, c := range p.Classes() {
		if c.Super != "" {
			h.supersOf[c.Name] = append(h.supersOf[c.Name], c.Super)
			h.subsOf[c.Super] = append(h.subsOf[c.Super], c.Name)
		}
		for _, i := range c.Interfaces {
			h.supersOf[c.Name] = append(h.supersOf[c.Name], i)
			h.subsOf[i] = append(h.subsOf[i], c.Name)
		}
		h.methodIdx[c.Name] = methodsOf(c, intern, make(map[string]*jimple.Method, len(c.Methods)))
		h.superOf[c.Name] = c.Super
	}
	for _, m := range []map[string][]string{h.subsOf, h.supersOf} {
		for k := range m {
			sort.Strings(m[k])
		}
	}
	return h
}

// NewOverlay returns the hierarchy of the overlay program p over base,
// which must be a flat hierarchy of p's base program, its indexes kept in
// sc; a nil sc means a fresh Scratch, which nothing resets. It does no
// work per class: own classes are indexed as queries reach them, and
// every query answers exactly as New over the flat merge of p's layers
// would.
func NewOverlay(base *Hierarchy, p *jimple.Program, sc *Scratch) *Hierarchy {
	if base.base != nil || p.Base() != base.prog {
		panic("hierarchy: overlay program does not sit on the base hierarchy's program")
	}
	if sc == nil {
		sc = new(Scratch)
	}
	if sc.methodIdx == nil {
		sc.methodIdx = make(map[string]map[string]*jimple.Method)
		sc.dispatchMemo = make(map[dispatchKey][]*jimple.Method)
	}
	if sc.intern == nil {
		sc.intern = jimple.NewInterner()
	}
	return &Hierarchy{
		prog: p, base: base, shadows: p.Shadows(), sc: sc,
		methodIdx: sc.methodIdx, dispatchMemo: sc.dispatchMemo, intern: sc.intern,
	}
}

// Scratch is the memory a scan's overlay hierarchy keeps its indexes in:
// the method index, with the per-class maps of earlier scans to reuse,
// the dispatch memo, and the subsignature interner. A scan resets it when
// it ends, after which the hierarchy built in it is invalid. The
// interner's strings outlive the reset: a string is immutable, and the
// next scan may share it.
type Scratch struct {
	methodIdx    map[string]map[string]*jimple.Method
	spare        []map[string]*jimple.Method
	dispatchMemo map[dispatchKey][]*jimple.Method
	intern       *jimple.Interner
}

// The bounds of what a Scratch keeps for the next scan: how many
// per-class maps (and index entries), how many methods a kept map may
// have held, how many entries the dispatch memo, and how many strings
// the interner.
const (
	maxSpareMaps   = 64
	maxSpareMethod = 64
	maxMemo        = 1024
	maxInterned    = 4096
)

// Reset empties s for the next scan: the per-class maps are cleared and
// kept for reuse, up to maxSpareMaps of them, the index and the memo are
// emptied (or dropped, past their bounds), and so is the interner past
// maxInterned strings.
func (s *Scratch) Reset() {
	for _, mm := range s.methodIdx {
		if len(s.spare) < maxSpareMaps && len(mm) <= maxSpareMethod {
			clear(mm)
			s.spare = append(s.spare, mm)
		}
	}
	if len(s.methodIdx) > maxSpareMaps || len(s.dispatchMemo) > maxMemo {
		s.methodIdx, s.dispatchMemo = nil, nil
	}
	clear(s.methodIdx)
	clear(s.dispatchMemo)
	if s.intern != nil && s.intern.Len() > maxInterned {
		s.intern = nil
	}
}

// methodMap returns an empty map for a class of n methods: a spare one
// of an earlier scan when sc holds one.
func (sc *Scratch) methodMap(n int) map[string]*jimple.Method {
	if len(sc.spare) == 0 {
		return make(map[string]*jimple.Method, n)
	}
	last := len(sc.spare) - 1
	mm := sc.spare[last]
	sc.spare[last] = nil
	sc.spare = sc.spare[:last]
	return mm
}

// methodsOf maps c's methods by subsignature, first declaration winning,
// in mm, which it returns.
func methodsOf(c *jimple.Class, intern *jimple.Interner, mm map[string]*jimple.Method) map[string]*jimple.Method {
	for _, m := range c.Methods {
		k := intern.SubSigKey(m.Sig)
		if _, dup := mm[k]; !dup {
			mm[k] = m
		}
	}
	return mm
}

// ownMethods returns the method index of the overlay's own class c,
// building it on first use.
func (h *Hierarchy) ownMethods(c *jimple.Class) map[string]*jimple.Method {
	h.mu.Lock()
	defer h.mu.Unlock()
	mm, ok := h.methodIdx[c.Name]
	if !ok {
		mm = methodsOf(c, h.intern, h.sc.methodMap(len(c.Methods)))
		h.methodIdx[c.Name] = mm
	}
	return mm
}

// Program returns the underlying program.
func (h *Hierarchy) Program() *jimple.Program { return h.prog }

// Base returns the frozen hierarchy beneath an overlay, or nil for a flat
// hierarchy.
func (h *Hierarchy) Base() *Hierarchy { return h.base }

// IndexSizes counts the entries of a hierarchy's own index maps.
type IndexSizes struct {
	Classes, Subtypes, Supertypes, Dispatch int
}

// IndexSizes reports the sizes of h's own indexes (for an overlay, not
// including its base's, and only what queries have built so far); tests
// use it to prove a shared base unchanged.
func (h *Hierarchy) IndexSizes() IndexSizes {
	h.mu.Lock()
	defer h.mu.Unlock()
	return IndexSizes{
		Classes:    len(h.methodIdx),
		Subtypes:   len(h.subsOf),
		Supertypes: len(h.supersOf),
		Dispatch:   len(h.dispatchMemo),
	}
}

// defined returns the method index and superclass of class c, looking in
// h's own classes first and then in the base; ok is false for a phantom.
func (h *Hierarchy) defined(c string) (mm map[string]*jimple.Method, super string, ok bool) {
	if h.base == nil {
		mm, ok = h.methodIdx[c]
		return mm, h.superOf[c], ok
	}
	if cls := h.prog.OwnClass(c); cls != nil {
		return h.ownMethods(cls), cls.Super, true
	}
	return h.base.defined(c)
}

// supers returns the direct supertypes of c — from h's own definition of
// c if there is one, else from the base's — in two parts, a superclass
// ("" for none) and the rest, so an own class of an overlay answers from
// its *Class without building a list. A flat hierarchy returns its whole
// sorted list as the rest.
func (h *Hierarchy) supers(c string) (string, []string) {
	if h.base == nil {
		return "", h.supersOf[c]
	}
	if cls := h.prog.OwnClass(c); cls != nil {
		return cls.Super, cls.Interfaces
	}
	return h.base.supers(c)
}

// eachSub calls fn on every direct subtype of t: the own layer's, then the
// base's that the own layer does not shadow (a shadowing class contributes
// through its own definition instead). A name may repeat; callers dedup.
func (h *Hierarchy) eachSub(t string, fn func(string)) {
	if h.base == nil {
		for _, s := range h.subsOf[t] {
			fn(s)
		}
		return
	}
	h.prog.EachOwnSub(t, fn)
	for _, s := range h.base.subsOf[t] {
		if h.shadows && h.prog.HasOwnClass(s) {
			continue
		}
		fn(s)
	}
}

// IsSubtype reports whether sub is the same as, or a transitive subtype
// (subclass or implementer) of, super. It allocates nothing for the
// shallow hierarchies real code has.
func (h *Hierarchy) IsSubtype(sub, super string) bool {
	if sub == super {
		return true
	}
	var seen visitSet
	var stackBuf [visitSmall]string
	seen.add(sub)
	stack := append(stackBuf[:0], sub)
	for len(stack) > 0 {
		c := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		sup, rest := h.supers(c)
		if sup != "" {
			if sup == super {
				return true
			}
			if seen.add(sup) {
				stack = append(stack, sup)
			}
		}
		for _, s := range rest {
			if s == super {
				return true
			}
			if seen.add(s) {
				stack = append(stack, s)
			}
		}
	}
	return false
}

// AppendSupertypes appends t and its transitive supertypes to dst, each
// once, in breadth-first order: IsSubtype(t, s) holds exactly for the
// appended names s. A caller testing one type against many candidates
// walks its supertypes once this way instead of once per candidate.
func (h *Hierarchy) AppendSupertypes(dst []string, t string) []string {
	lo := len(dst)
	dst = append(dst, t)
	for i := lo; i < len(dst); i++ {
		sup, rest := h.supers(dst[i])
		if sup != "" && !slices.Contains(dst[lo:], sup) {
			dst = append(dst, sup)
		}
		for _, s := range rest {
			if !slices.Contains(dst[lo:], s) {
				dst = append(dst, s)
			}
		}
	}
	return dst
}

// visitSmall bounds the inline part of a visitSet; supertype closures
// past it (only pathological or generated hierarchies) spill to a map.
const visitSmall = 16

// visitSet is a string set kept in an inline array while small, so a
// traversal over a short supertype chain stays off the heap.
type visitSet struct {
	n     int
	small [visitSmall]string
	big   map[string]struct{}
}

// add inserts k and reports whether it was absent.
func (s *visitSet) add(k string) bool {
	if s.big != nil {
		if _, ok := s.big[k]; ok {
			return false
		}
		s.big[k] = struct{}{}
		return true
	}
	for _, v := range s.small[:s.n] {
		if v == k {
			return false
		}
	}
	if s.n < visitSmall {
		s.small[s.n] = k
		s.n++
		return true
	}
	s.big = make(map[string]struct{}, 2*visitSmall)
	for _, v := range s.small {
		s.big[v] = struct{}{}
	}
	s.big[k] = struct{}{}
	return true
}

// SubtypesOf returns all transitive subtypes of t, including t itself,
// sorted by name.
func (h *Hierarchy) SubtypesOf(t string) []string {
	seen := map[string]bool{t: true}
	stack := []string{t}
	visit := func(s string) {
		if !seen[s] {
			seen[s] = true
			stack = append(stack, s)
		}
	}
	for len(stack) > 0 {
		c := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		h.eachSub(c, visit)
	}
	out := make([]string, 0, len(seen))
	for c := range seen {
		out = append(out, c)
	}
	sort.Strings(out)
	return out
}

// Supertypes returns all transitive supertypes of t (not including t),
// sorted by name.
func (h *Hierarchy) Supertypes(t string) []string {
	seen := map[string]bool{}
	stack := []string{t}
	visit := func(s string) {
		if !seen[s] {
			seen[s] = true
			stack = append(stack, s)
		}
	}
	for len(stack) > 0 {
		c := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		sup, rest := h.supers(c)
		if sup != "" {
			visit(sup)
		}
		for _, s := range rest {
			visit(s)
		}
	}
	out := make([]string, 0, len(seen))
	for c := range seen {
		out = append(out, c)
	}
	sort.Strings(out)
	return out
}

// DeclaredMethod returns the method class c itself declares with the
// given subsignature key (the first such declaration, as Class.Method
// finds it), or nil; c's inherited methods do not count.
func (h *Hierarchy) DeclaredMethod(c, subSigKey string) *jimple.Method {
	mm, _, _ := h.defined(c)
	return mm[subSigKey]
}

// LookupMethod resolves a method by subsignature starting at class c and
// walking up the superclass chain, as Java virtual lookup does. Returns
// nil if no definition is found in the program.
func (h *Hierarchy) LookupMethod(c, subSigKey string) *jimple.Method {
	for cur := c; cur != ""; {
		mm, super, defined := h.defined(cur)
		if !defined {
			return nil
		}
		if m := mm[subSigKey]; m != nil {
			return m
		}
		cur = super
	}
	return nil
}

// Dispatch resolves the possible concrete targets of an invocation using
// CHA. For virtual/interface invokes the result is every definition of the
// subsignature on the declared class's subtree (plus the inherited
// definition if the declared class itself doesn't define it). For special
// and static invokes it is the single static target. sub is the callee's
// subsignature key, which the caller renders (once per call site, into an
// interner), so a memo hit allocates nothing.
func (h *Hierarchy) Dispatch(e jimple.InvokeExpr, sub string) []*jimple.Method {
	virtual := e.Kind != jimple.InvokeStatic && e.Kind != jimple.InvokeSpecial
	key := dispatchKey{virtual: virtual, class: e.Callee.Class, subsig: sub}
	h.mu.Lock()
	if out, ok := h.dispatchMemo[key]; ok {
		h.mu.Unlock()
		return out
	}
	h.mu.Unlock()
	out := h.dispatch(virtual, e.Callee.Class, sub)
	h.mu.Lock()
	h.dispatchMemo[key] = out
	h.mu.Unlock()
	return out
}

// dispatch computes an uncached CHA resolution. Callers must treat the
// returned slice as read-only: it is memoized and shared.
func (h *Hierarchy) dispatch(virtual bool, class, sub string) []*jimple.Method {
	if !virtual {
		if m := h.LookupMethod(class, sub); m != nil && m.HasBody() {
			return []*jimple.Method{m}
		}
		return nil
	}
	var out []*jimple.Method
	seen := make(map[*jimple.Method]bool)
	for _, t := range h.SubtypesOf(class) {
		m := h.LookupMethod(t, sub)
		if m == nil || !m.HasBody() {
			continue
		}
		if !seen[m] {
			seen[m] = true
			out = append(out, m)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Sig.Key() < out[j].Sig.Key() })
	return out
}

// DeclaredDispatch resolves only against the declared type (no subtree
// search). It exists as the ablation baseline for the CHA comparison
// benchmark: it misses overrides in subclasses. sub is the callee's
// subsignature key, as for Dispatch.
func (h *Hierarchy) DeclaredDispatch(e jimple.InvokeExpr, sub string) []*jimple.Method {
	if m := h.LookupMethod(e.Callee.Class, sub); m != nil && m.HasBody() {
		return []*jimple.Method{m}
	}
	return nil
}

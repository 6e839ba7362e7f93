package jimple

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// LocalDecl declares a method-local variable with its static type.
type LocalDecl struct {
	Name string
	Type string
}

// Trap is an exception handler range: if a statement with index in
// [Begin, End) throws an exception assignable to Exception, control
// transfers to the statement at Handler.
type Trap struct {
	Begin     int
	End       int
	Handler   int
	Exception string
}

// Method is a method definition. Abstract and interface methods have a nil
// Body.
type Method struct {
	Sig      Sig
	Static   bool
	Abstract bool
	Locals   []LocalDecl
	Body     []Stmt
	Traps    []Trap
}

// HasBody reports whether the method has a concrete body.
func (m *Method) HasBody() bool { return !m.Abstract && m.Body != nil }

// LocalType returns the declared type of the named local, or "" if the
// local is not declared.
func (m *Method) LocalType(name string) string {
	for _, l := range m.Locals {
		if l.Name == name {
			return l.Type
		}
	}
	return ""
}

// Field is a field definition.
type Field struct {
	Name   string
	Type   string
	Static bool
}

// Class is a class or interface definition.
type Class struct {
	Name       string
	Super      string // "" only for java.lang.Object and roots of stub hierarchies
	Interfaces []string
	IsIface    bool
	Abstract   bool
	Fields     []*Field
	Methods    []*Method
}

// Method returns the method with the given subsignature key declared
// directly on c, or nil.
func (c *Class) Method(subSigKey string) *Method {
	for _, m := range c.Methods {
		if m.Sig.HasSubSig(subSigKey) {
			return m
		}
	}
	return nil
}

// MethodNamed returns the first method declared on c with the given name,
// or nil. Convenient in tests and generators where names are unique.
func (c *Class) MethodNamed(name string) *Method {
	for _, m := range c.Methods {
		if m.Sig.Name == name {
			return m
		}
	}
	return nil
}

// AddMethod appends m to the class, setting its declaring class.
func (c *Class) AddMethod(m *Method) *Method {
	m.Sig.Class = c.Name
	c.Methods = append(c.Methods, m)
	return m
}

// Program is a closed set of classes under analysis: the app's own classes
// plus whatever framework/library stub classes the app's hierarchy needs.
//
// A program is either flat (every class in one map) or an overlay: its own
// classes layered over a frozen base program. Lookups in an overlay try the
// own layer first and fall through to the base, so an own class shadows a
// base class of the same name — the same app-wins rule Merge applies when
// the framework is merged under an app. The base is only ever read.
//
// A program made by NewLazyProgram holds no class object up front: its own
// classes live in a ClassSource, and each is built — header and members,
// bodies left to the source — the first time a lookup reaches it, then
// memoized. The accessors that hand out every class (Classes, OwnClasses,
// Merge, which hands classes to another program, and NumStmts) build
// every class first; the lookups (Class, OwnClass, Method) build only the
// class they return, and HasOwnClass and EachOwnSub build none.
type Program struct {
	// classes holds a flat program's own classes; nil for a lazily opened
	// program, whose own classes are in lazy.
	classes map[string]*Class
	lazy    *lazyClasses

	// base is the frozen layer beneath an overlay; nil for a flat program.
	// shadowed counts own classes that hide a base class of the same name.
	base     *Program
	shadowed int

	// frozen programs reject AddClass and Merge; sorted caches their
	// Classes() order, computed once by Freeze.
	frozen bool
	sorted []*Class

	// subs holds a flat own layer's reverse subtype edges (EachOwnSub),
	// built under subsMu on first use and dropped by AddClass.
	subsMu sync.Mutex
	subs   map[string][]string
}

// ClassSource is the own layer of a lazily opened program: its classes by
// slot, a slot per class of the container, of which only the last class
// of each name is live. A source answers by name without building
// anything (OwnSlot, EachOwnSub), and builds a class only on request.
type ClassSource interface {
	// OwnSlot returns the slot of the live class named name.
	OwnSlot(name string) (int32, bool)
	// BuildClass returns a new class for a live slot: its header and
	// members, with every method bodiless until the source adds bodies. The
	// program calls it at most once per slot, under its build lock, and it
	// must not call back into the program.
	BuildClass(slot int32) *Class
	// NumSlots returns the number of slots; NumOwnClasses the number of
	// live ones.
	NumSlots() int
	NumOwnClasses() int
	// EachLiveSlot calls fn on every live slot, ascending.
	EachLiveSlot(fn func(slot int32))
	// OwnSubs returns the live slots whose class has t as its superclass
	// or as one of its interfaces, a slot per such edge; the slice is
	// shared.
	OwnSubs(t string) []int32
	// ClassName returns the name of the class at slot.
	ClassName(slot int32) string
}

// lazyClasses is the own layer of a program made by NewLazyProgram: the
// source, and the memo of the classes built from it. The memo is by slot,
// an atomic pointer each, so a lookup reads it without a lock while
// another goroutine builds a class (a map could not be read then); builds
// run one at a time under mu.
type lazyClasses struct {
	src   ClassSource
	mu    sync.Mutex
	built []atomic.Pointer[Class] // by slot
}

// class returns the live class named name, building it on first lookup,
// or nil.
func (lc *lazyClasses) class(name string) *Class {
	slot, ok := lc.src.OwnSlot(name)
	if !ok {
		return nil
	}
	if c := lc.built[slot].Load(); c != nil {
		return c
	}
	return lc.build(slot)
}

func (lc *lazyClasses) build(slot int32) *Class {
	lc.mu.Lock()
	defer lc.mu.Unlock()
	c := lc.built[slot].Load()
	if c == nil {
		c = lc.src.BuildClass(slot)
		lc.built[slot].Store(c)
	}
	return c
}

// all builds every live class and returns them in slot order.
func (lc *lazyClasses) all() []*Class {
	out := make([]*Class, 0, lc.src.NumOwnClasses())
	lc.src.EachLiveSlot(func(slot int32) {
		c := lc.built[slot].Load()
		if c == nil {
			c = lc.build(slot)
		}
		out = append(out, c)
	})
	return out
}

// NewProgram returns an empty program.
func NewProgram() *Program {
	return &Program{classes: make(map[string]*Class)}
}

// NewLazyProgram returns the program whose own classes src holds, each
// built on its first lookup. Its own layer is fixed: AddClass and Merge
// into it panic. The built classes are memoized by slot in memo, a memo
// an earlier program gave back (ReleaseMemo), when it has the room, and
// in a new one otherwise; nil asks for a new one.
func NewLazyProgram(src ClassSource, memo []atomic.Pointer[Class]) *Program {
	if n := src.NumSlots(); cap(memo) >= n {
		memo = memo[:n]
		clear(memo)
	} else {
		memo = make([]atomic.Pointer[Class], n)
	}
	return &Program{lazy: &lazyClasses{src: src, built: memo}}
}

// ReleaseMemo takes the class memo of a lazily opened program whose
// source has released its classes, for a later NewLazyProgram to reuse.
// The program's classes are invalid from then on: a lookup panics in the
// source, and EachBuilt calls fn on none. It returns nil for a flat
// program, and for a lazy one whose memo has gone already.
func (p *Program) ReleaseMemo() []atomic.Pointer[Class] {
	if p.lazy == nil {
		return nil
	}
	memo := p.lazy.built
	p.lazy.built = nil
	return memo
}

// NewOverlay returns a program whose own layer is app's classes layered
// over base, which must be frozen. The overlay adopts app's layer rather
// than copying it: the two programs share one class map (or a lazily
// opened app's source and memo), so the cost is a check of base's classes
// against app's names, independent of app's size, and nothing of either
// program is copied. app must itself be flat, and neither program may be
// changed afterwards except through the overlay: a class added to one
// appears in the other, and a class added to app directly escapes the
// overlay's shadow count. No scan changes a program once it is overlaid.
func NewOverlay(app, base *Program) *Program {
	if !base.frozen {
		panic("jimple: overlay base program is not frozen")
	}
	if app.base != nil {
		panic("jimple: overlay over an overlay app program")
	}
	p := &Program{classes: app.classes, lazy: app.lazy, base: base}
	for _, c := range base.sorted {
		if p.HasOwnClass(c.Name) {
			p.shadowed++
		}
	}
	return p
}

// Freeze makes p read-only: AddClass and Merge into it panic from now on,
// so p can be shared between goroutines as an overlay base. It returns p.
func (p *Program) Freeze() *Program {
	if !p.frozen {
		p.sorted = p.Classes()
		p.frozen = true
	}
	return p
}

// Base returns the frozen program beneath an overlay, or nil for a flat
// program.
func (p *Program) Base() *Program { return p.base }

// AddClass inserts c, replacing any prior class with the same name. In an
// overlay, c goes into the own layer and shadows any base class of the
// same name.
func (p *Program) AddClass(c *Class) *Class {
	if p.frozen {
		panic("jimple: AddClass on a frozen program")
	}
	if p.lazy != nil {
		panic("jimple: AddClass on a lazily opened program")
	}
	if p.base != nil && p.base.Class(c.Name) != nil {
		if _, own := p.classes[c.Name]; !own {
			p.shadowed++
		}
	}
	p.classes[c.Name] = c
	p.subs = nil
	return c
}

// Class returns the named class, or nil if it is not in the program.
func (p *Program) Class(name string) *Class {
	if c := p.OwnClass(name); c != nil || p.base == nil {
		return c
	}
	return p.base.Class(name)
}

// NumClasses returns the number of classes in the program.
func (p *Program) NumClasses() int {
	n := len(p.classes)
	if p.lazy != nil {
		n = p.lazy.src.NumOwnClasses()
	}
	if p.base == nil {
		return n
	}
	return n + p.base.NumClasses() - p.shadowed
}

// Classes returns all classes sorted by name. The slice is freshly
// allocated; the *Class values are shared.
func (p *Program) Classes() []*Class {
	if p.frozen {
		return append([]*Class(nil), p.sorted...)
	}
	own := p.OwnClasses()
	sort.Slice(own, func(i, j int) bool { return own[i].Name < own[j].Name })
	if p.base == nil {
		return own
	}
	// Merge the sorted own layer with the base's sorted list, dropping the
	// base classes the own layer shadows. An overlay's base is frozen, so
	// its sorted order is cached.
	base := p.base.sorted
	out := make([]*Class, 0, len(own)+len(base)-p.shadowed)
	i := 0
	for _, b := range base {
		for i < len(own) && own[i].Name < b.Name {
			out = append(out, own[i])
			i++
		}
		if !p.HasOwnClass(b.Name) {
			out = append(out, b)
		}
	}
	return append(out, own[i:]...)
}

// OwnClasses returns the classes of p's own layer — for an overlay, the
// classes layered over the base; for a flat program, all of them — in no
// particular order. The slice is freshly allocated.
func (p *Program) OwnClasses() []*Class {
	if p.lazy != nil {
		return p.lazy.all()
	}
	out := make([]*Class, 0, len(p.classes))
	for _, c := range p.classes {
		out = append(out, c)
	}
	return out
}

// OwnClass returns the named class of p's own layer, or nil: unlike
// Class, it never falls through to the base.
func (p *Program) OwnClass(name string) *Class {
	if p.lazy != nil {
		return p.lazy.class(name)
	}
	return p.classes[name]
}

// HasOwnClass reports whether p's own layer holds a class of that name,
// building none.
func (p *Program) HasOwnClass(name string) bool {
	if p.lazy != nil {
		_, ok := p.lazy.src.OwnSlot(name)
		return ok
	}
	_, ok := p.classes[name]
	return ok
}

// Shadows reports whether an own class of an overlay hides a base class
// of the same name.
func (p *Program) Shadows() bool { return p.shadowed > 0 }

// EachBuilt calls fn on every own class a lookup has built so far: for a
// lazily opened program, the classes a lookup or a whole-program accessor
// reached, in slot order, read from the memo without building any; for a
// flat program, all of them, in no particular order. A class built while
// it runs may be left out.
func (p *Program) EachBuilt(fn func(*Class)) {
	if p.lazy == nil {
		for _, c := range p.classes {
			fn(c)
		}
		return
	}
	for i := range p.lazy.built {
		if c := p.lazy.built[i].Load(); c != nil {
			fn(c)
		}
	}
}

// EachOwnSub calls fn on the name of every own class whose superclass or
// one of whose interfaces is t — the own layer's reverse subtype edges —
// as many times as the class names t, building no class. A name may
// repeat; callers dedup.
func (p *Program) EachOwnSub(t string, fn func(name string)) {
	if p.lazy != nil {
		src := p.lazy.src
		for _, slot := range src.OwnSubs(t) {
			fn(src.ClassName(slot))
		}
		return
	}
	p.subsMu.Lock()
	if p.subs == nil {
		p.subs = make(map[string][]string)
		for _, c := range p.classes {
			if c.Super != "" {
				p.subs[c.Super] = append(p.subs[c.Super], c.Name)
			}
			for _, i := range c.Interfaces {
				p.subs[i] = append(p.subs[i], c.Name)
			}
		}
	}
	subs := p.subs[t]
	p.subsMu.Unlock()
	for _, s := range subs {
		fn(s)
	}
}

// Method resolves a signature to its defining method by exact declaring
// class, or nil if absent.
func (p *Program) Method(sig Sig) *Method {
	c := p.Class(sig.Class)
	if c == nil {
		return nil
	}
	return c.Method(sig.SubSigKey())
}

// Merge adds every class of other into p. Classes already present in p are
// kept (p wins), so framework stubs can be merged under app classes that
// deliberately shadow them. In an overlay, "present" includes the base;
// other must be flat.
func (p *Program) Merge(other *Program) {
	if p.frozen {
		panic("jimple: Merge into a frozen program")
	}
	if other.base != nil {
		panic("jimple: Merge from an overlay program")
	}
	for _, c := range other.OwnClasses() {
		if p.Class(c.Name) == nil {
			p.AddClass(c)
		}
	}
}

// NumStmts returns the total number of statements across all method
// bodies; a cheap size metric used in reports and benchmarks.
func (p *Program) NumStmts() int {
	n := 0
	for _, c := range p.OwnClasses() {
		n += classStmts(c)
	}
	if p.base != nil {
		for _, c := range p.base.sorted {
			if !p.HasOwnClass(c.Name) {
				n += classStmts(c)
			}
		}
	}
	return n
}

func classStmts(c *Class) int {
	n := 0
	for _, m := range c.Methods {
		n += len(m.Body)
	}
	return n
}

// Validate checks structural invariants of every method body: branch
// targets in range, traps well-formed, locals declared exactly once, and
// all used locals declared. It returns the first violation found, or nil.
func (p *Program) Validate() error {
	for _, c := range p.Classes() {
		for _, m := range c.Methods {
			if err := validateMethod(m); err != nil {
				return fmt.Errorf("%s: %w", m.Sig.Key(), err)
			}
		}
	}
	return nil
}

func validateMethod(m *Method) error {
	if !m.HasBody() {
		if len(m.Body) > 0 {
			return fmt.Errorf("abstract method has a body")
		}
		return nil
	}
	if len(m.Body) == 0 {
		return fmt.Errorf("concrete method has an empty body")
	}
	declared := make(map[string]bool, len(m.Locals))
	for _, l := range m.Locals {
		if declared[l.Name] {
			return fmt.Errorf("local %q declared twice", l.Name)
		}
		if l.Name == "" || l.Type == "" {
			return fmt.Errorf("local with empty name or type")
		}
		declared[l.Name] = true
	}
	n := len(m.Body)
	var scratch []int
	var uses []string
	for i, s := range m.Body {
		if s == nil {
			return fmt.Errorf("nil statement at %d", i)
		}
		scratch = BranchTargets(scratch[:0], s)
		for _, t := range scratch {
			if t < 0 || t >= n {
				return fmt.Errorf("statement %d branches out of range (%d of %d)", i, t, n)
			}
		}
		uses = UsesOf(uses[:0], s)
		if d := DefOf(s); d != "" {
			uses = append(uses, d)
		}
		if a, ok := s.(*AssignStmt); ok {
			if f, isField := a.LHS.(FieldRef); isField && f.Base != "" {
				uses = append(uses, f.Base)
			}
		}
		for _, u := range uses {
			if !declared[u] {
				return fmt.Errorf("statement %d uses undeclared local %q", i, u)
			}
		}
	}
	for ti, t := range m.Traps {
		if t.Begin < 0 || t.End > n || t.Begin >= t.End {
			return fmt.Errorf("trap %d has bad range [%d,%d) of %d", ti, t.Begin, t.End, n)
		}
		if t.Handler < 0 || t.Handler >= n {
			return fmt.Errorf("trap %d has bad handler %d", ti, t.Handler)
		}
		if t.Exception == "" {
			return fmt.Errorf("trap %d has empty exception type", ti)
		}
	}
	return nil
}

package jimple

import (
	"fmt"
	"sort"
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
		if m.Sig.SubSigKey() == subSigKey {
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
type Program struct {
	classes map[string]*Class

	// base is the frozen layer beneath an overlay; nil for a flat program.
	// shadowed counts own classes that hide a base class of the same name.
	base     *Program
	shadowed int

	// frozen programs reject AddClass and Merge; sorted caches their
	// Classes() order, computed once by Freeze.
	frozen bool
	sorted []*Class
}

// NewProgram returns an empty program.
func NewProgram() *Program {
	return &Program{classes: make(map[string]*Class)}
}

// NewOverlay returns a program whose own layer holds app's classes (the
// *Class values are shared, as Merge shares them) layered over base, which
// must be frozen. Its cost is linear in app's classes: nothing of base is
// copied. app must itself be flat.
func NewOverlay(app, base *Program) *Program {
	if !base.frozen {
		panic("jimple: overlay base program is not frozen")
	}
	if app.base != nil {
		panic("jimple: overlay over an overlay app program")
	}
	p := &Program{classes: make(map[string]*Class, len(app.classes)), base: base}
	for _, c := range app.classes {
		p.AddClass(c)
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
	if p.base != nil && p.base.Class(c.Name) != nil {
		if _, own := p.classes[c.Name]; !own {
			p.shadowed++
		}
	}
	p.classes[c.Name] = c
	return c
}

// Class returns the named class, or nil if it is not in the program.
func (p *Program) Class(name string) *Class {
	if c := p.classes[name]; c != nil || p.base == nil {
		return c
	}
	return p.base.Class(name)
}

// NumClasses returns the number of classes in the program.
func (p *Program) NumClasses() int {
	if p.base == nil {
		return len(p.classes)
	}
	return len(p.classes) + p.base.NumClasses() - p.shadowed
}

// Classes returns all classes sorted by name. The slice is freshly
// allocated; the *Class values are shared.
func (p *Program) Classes() []*Class {
	if p.frozen {
		return append([]*Class(nil), p.sorted...)
	}
	own := p.sortedOwn()
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
		if _, shadowed := p.classes[b.Name]; !shadowed {
			out = append(out, b)
		}
	}
	return append(out, own[i:]...)
}

// OwnClasses returns the classes of p's own layer — for an overlay, the
// classes layered over the base; for a flat program, all of them — in no
// particular order. The slice is freshly allocated.
func (p *Program) OwnClasses() []*Class {
	out := make([]*Class, 0, len(p.classes))
	for _, c := range p.classes {
		out = append(out, c)
	}
	return out
}

// OwnClass returns the named class of p's own layer, or nil: unlike
// Class, it never falls through to the base.
func (p *Program) OwnClass(name string) *Class { return p.classes[name] }

// Shadows reports whether an own class of an overlay hides a base class
// of the same name.
func (p *Program) Shadows() bool { return p.shadowed > 0 }

// EachOwnClass calls fn on every class of p's own layer, in no
// particular order, without collecting them into a slice.
func (p *Program) EachOwnClass(fn func(*Class)) {
	for _, c := range p.classes {
		fn(c)
	}
}

func (p *Program) sortedOwn() []*Class {
	out := p.OwnClasses()
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
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
	for name, c := range other.classes {
		if p.Class(name) == nil {
			p.AddClass(c)
		}
	}
}

// NumStmts returns the total number of statements across all method
// bodies; a cheap size metric used in reports and benchmarks.
func (p *Program) NumStmts() int {
	n := 0
	for _, c := range p.classes {
		n += classStmts(c)
	}
	if p.base != nil {
		for _, c := range p.base.sorted {
			if _, shadowed := p.classes[c.Name]; !shadowed {
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

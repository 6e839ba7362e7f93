package dex

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/jimple"
)

// This file is the lazy decode fast path every container scan opens with:
// DecodeLazy parses the container eagerly down to class/field/method
// headers but retains no method bodies. Each body section is skimmed once
// to delimit its byte span and extract a MethodRef — the call targets,
// explicit-intent class names, and referenced types the demand-driven
// closure rules need. The skim (skimBody below) walks the same bytes the
// eager core walks, runs the same validation checks in the same order,
// but never materializes statement or value objects — the bulk of a cold
// decode's allocations for bodies the demand closure will never visit. On
// any skim rejection the materializing core re-runs over the span, so
// malformed input fails with the eager path's exact error and offset.
// Materialize re-runs the eager core over a recorded span to give a
// demanded class its bodies back, so a fully materialized lazy program is
// bit-identical to an eager Decode of the same bytes.

// MethodRef is the skim record of one body-bearing method: everything the
// targeted closure engine consults without the body being retained.
type MethodRef struct {
	// Sig is the method's full signature (declaring class included).
	Sig jimple.Sig
	// Key is Sig.Key(), rendered once when the records are sorted.
	Key string
	// Calls lists the top-level callee signatures in statement order —
	// the jimple.InvokeOf shape: an InvokeStmt or an AssignStmt whose RHS
	// is an invoke. Nested invokes cannot be expressed at statement level,
	// so this is exactly the call set the call graph builds from.
	Calls []jimple.Sig
	// Intents lists the string-constant class names passed to one-argument
	// setClassName calls anywhere in the body: a superset of the
	// explicit-intent targets callgraph resolves (which also requires the
	// receiver local to alias the launched Intent).
	Intents []string
}

// refOf extracts the skim record from a decoded body-bearing method. It
// is the single extraction rule shared by the lazy skim and MethodRefsOf,
// which keeps the two scan paths' closure inputs identical.
func refOf(m *jimple.Method) MethodRef {
	ref := MethodRef{Sig: m.Sig}
	for _, s := range m.Body {
		inv, ok := jimple.InvokeOf(s)
		if !ok {
			continue
		}
		ref.Calls = append(ref.Calls, inv.Callee)
		if inv.Callee.Name == "setClassName" && len(inv.Args) == 1 {
			if sc, isStr := inv.Args[0].(jimple.StrConst); isStr {
				ref.Intents = append(ref.Intents, sc.V)
			}
		}
	}
	return ref
}

// MethodRefsOf extracts skim records from an eagerly decoded program's
// body-bearing methods, sorted by method key. The in-memory targeted scan
// path feeds these to the closure engine; the differential tests pin them
// equal to a Lazy skim of the same program's encoded bytes.
func MethodRefsOf(p *jimple.Program) []MethodRef {
	var out []MethodRef
	for _, c := range p.Classes() {
		for _, m := range c.Methods {
			if m.HasBody() {
				out = append(out, refOf(m))
			}
		}
	}
	sortRefs(out)
	return out
}

// sortRefs fills in each record's Key and sorts the records by it,
// stably, rendering every key once rather than twice per comparison.
func sortRefs(refs []MethodRef) {
	for i := range refs {
		refs[i].Key = refs[i].Sig.Key()
	}
	sort.SliceStable(refs, func(i, j int) bool { return refs[i].Key < refs[j].Key })
}

// bodiedRec ties a skeleton method to its skim record and the offset of
// its encoded body section (start of the locals count).
type bodiedRec struct {
	m     *jimple.Method
	start int
	ref   MethodRef
}

// Lazy is a lazily decoded program: full headers, no bodies. Methods that
// had a body in the bytes sit in the skeleton with Abstract=false and
// Body=nil (HasBody false) until their class is materialized. Lazy is not
// safe for concurrent mutation; materialize before sharing the program.
type Lazy struct {
	data []byte
	pool []string

	prog      *jimple.Program
	classRecs map[string][]bodiedRec
	refs      []MethodRef
	// localTypes accumulates the declared local types seen during the
	// skim; bodies are dropped, so the set is captured in passing.
	localTypes   map[string]bool
	refClasses   []string
	materialized map[string]bool
	poolSet      map[string]bool // built on first TargetSiteSearch
}

// DecodeLazy parses bytes produced by Encode into a Lazy program. It
// accepts and rejects exactly the inputs Decode does: the skim shares the
// eager decoder core statement for statement.
func DecodeLazy(data []byte) (*Lazy, error) {
	l := &Lazy{
		data:         data,
		classRecs:    make(map[string][]bodiedRec),
		materialized: make(map[string]bool),
	}
	d := &decoder{data: data, lazy: l}
	prog, err := d.run()
	if err != nil {
		return nil, fmt.Errorf("dex: %w (at offset %d)", err, d.pos)
	}
	l.prog = prog
	l.pool = d.pool
	l.finalize()
	return l, nil
}

// finalize freezes the sorted record list and the referenced-class set
// once the whole container has parsed.
func (l *Lazy) finalize() {
	classes := make([]string, 0, len(l.classRecs))
	for cls := range l.classRecs {
		classes = append(classes, cls)
	}
	sort.Strings(classes)
	noted := make(map[string]bool)
	for _, cls := range classes {
		for _, br := range l.classRecs[cls] {
			l.refs = append(l.refs, br.ref)
		}
	}
	sortRefs(l.refs)
	// The referenced-class note set mirrors apimodel.LibsUsedBy: every
	// supertype and interface, every top-level callee's class, and every
	// body-bearing method's local types (collected during the skim into
	// the records' Calls plus the transient locals noted by lazyBody).
	for _, c := range l.prog.Classes() {
		noted[c.Super] = true
		for _, i := range c.Interfaces {
			noted[i] = true
		}
	}
	for _, r := range l.refs {
		for _, call := range r.Calls {
			noted[call.Class] = true
		}
	}
	for t := range l.localTypes {
		noted[t] = true
	}
	l.refClasses = make([]string, 0, len(noted))
	for cls := range noted {
		if cls != "" {
			l.refClasses = append(l.refClasses, cls)
		}
	}
	sort.Strings(l.refClasses)
}

// Program returns the skeleton program. Materialize mutates it in place;
// after MaterializeAll it is bit-identical to an eager Decode.
func (l *Lazy) Program() *jimple.Program { return l.prog }

// MethodRefs returns the skim records of every body-bearing method,
// sorted by method key. The slice is shared; treat it as read-only.
func (l *Lazy) MethodRefs() []MethodRef { return l.refs }

// RefClasses returns every class name the program references (supertypes,
// interfaces, invoked classes, local types), sorted —
// apimodel.LibsUsedByClasses' input, computed without retained bodies.
func (l *Lazy) RefClasses() []string { return l.refClasses }

// NumBodiedClasses returns how many classes have at least one
// body-bearing method (the denominator of the decoded/skipped counters).
func (l *Lazy) NumBodiedClasses() int { return len(l.classRecs) }

// Materialize decodes the retained body spans of one class into the
// skeleton, idempotently. The spans were fully skimmed at DecodeLazy
// time, so an error here means the underlying bytes changed — callers may
// treat it as impossible for data they own.
func (l *Lazy) Materialize(class string) error {
	if l.materialized[class] {
		return nil
	}
	l.materialized[class] = true
	for _, br := range l.classRecs[class] {
		d := &decoder{data: l.data, pos: br.start, pool: l.pool}
		if err := d.body(br.m); err != nil {
			return fmt.Errorf("dex: %w (at offset %d)", err, d.pos)
		}
	}
	return nil
}

// MaterializeAll decodes every retained body, leaving the program equal
// to an eager Decode — what dynamic validation needs before it replays
// the app.
func (l *Lazy) MaterializeAll() error {
	classes := make([]string, 0, len(l.classRecs))
	for cls := range l.classRecs {
		classes = append(classes, cls)
	}
	sort.Strings(classes)
	for _, cls := range classes {
		if err := l.Materialize(cls); err != nil {
			return err
		}
	}
	return nil
}

// TargetSiteSearch returns the sorted keys of skimmed methods containing
// a top-level call to one of the wanted callee signatures. Fast path: a
// method ref can only name a signature whose class and method-name
// strings are interned in the constant pool, so an app that never
// mentions a target API resolves to no sites from the pool scan alone,
// before any method record is consulted.
func (l *Lazy) TargetSiteSearch(wanted []jimple.Sig) []string {
	if l.poolSet == nil {
		l.poolSet = make(map[string]bool, len(l.pool))
		for _, s := range l.pool {
			l.poolSet[s] = true
		}
	}
	keys := make(map[string]bool, len(wanted))
	for _, w := range wanted {
		if l.poolSet[w.Class] && l.poolSet[w.Name] {
			keys[w.Key()] = true
		}
	}
	if len(keys) == 0 {
		return nil
	}
	var out []string
	for i := range l.refs {
		for _, c := range l.refs[i].Calls {
			if keys[c.Key()] {
				out = append(out, l.refs[i].Key)
				break
			}
		}
	}
	return out
}

// lazyBody is the decoder hook for the skim: it parses the body span
// without materializing statements, records the span and the extracted
// MethodRef, and leaves m bodiless.
func (d *decoder) lazyBody(m *jimple.Method) error {
	start := d.pos
	ref := MethodRef{Sig: m.Sig}
	empty, err := d.skimBody(&ref)
	if err != nil {
		// Re-run the materializing core over the same span: malformed input
		// fails with the eager path's exact error and offset, and a span the
		// core accepts (a skim divergence, never expected) falls back to the
		// materialized record so the two paths cannot drift.
		d.pos = start
		tmp := jimple.Method{Sig: m.Sig, Static: m.Static}
		if coreErr := d.body(&tmp); coreErr != nil {
			return coreErr
		}
		empty, ref = !tmp.HasBody(), refOf(&tmp)
		if !empty {
			for _, lcl := range tmp.Locals {
				d.noteLocalType(lcl.Type)
			}
		}
	}
	if empty {
		// Empty-body normalization, mirrored onto the skeleton: nothing to
		// materialize later.
		m.Abstract = true
		return nil
	}
	d.lazy.classRecs[m.Sig.Class] = append(d.lazy.classRecs[m.Sig.Class],
		bodiedRec{m: m, start: start, ref: ref})
	return nil
}

func (d *decoder) noteLocalType(t string) {
	if d.lazy.localTypes == nil {
		d.lazy.localTypes = make(map[string]bool)
	}
	d.lazy.localTypes[t] = true
}

// errSkimReject marks a structural check the skim cannot phrase exactly
// (the eager error interpolates the materialized value's dynamic type);
// lazyBody's fallback re-run produces the real error.
var errSkimReject = errors.New("dex: skim rejected span")

// skimBody mirrors decoder.body over the same bytes with the same checks
// in the same order, but drops everything except the MethodRef capture
// and the local-type notes. empty reports whether the section holds zero
// statements (the empty-body normalization case).
func (d *decoder) skimBody(ref *MethodRef) (empty bool, err error) {
	nl, err := d.count("local")
	if err != nil {
		return false, err
	}
	d.localScratch = d.localScratch[:0]
	for i := 0; i < nl; i++ {
		if _, err := d.ref(); err != nil { // name
			return false, err
		}
		t, err := d.ref()
		if err != nil {
			return false, err
		}
		d.localScratch = append(d.localScratch, t)
	}
	ns, err := d.count("statement")
	if err != nil {
		return false, err
	}
	if ns > 0 {
		// Empty bodies normalize to abstract stubs with their locals
		// dropped, so their local types must not leak into the note set.
		for _, t := range d.localScratch {
			d.noteLocalType(t)
		}
	}
	for i := 0; i < ns; i++ {
		if err := d.skimStmt(ref); err != nil {
			return false, err
		}
	}
	nt, err := d.count("trap")
	if err != nil {
		return false, err
	}
	for i := 0; i < nt; i++ {
		for j := 0; j < 3; j++ { // begin, end, handler
			if _, err := d.u64(); err != nil {
				return false, err
			}
		}
		if _, err := d.ref(); err != nil { // exception
			return false, err
		}
	}
	return ns == 0, nil
}

func (d *decoder) skimStmt(ref *MethodRef) error {
	op, err := d.byte()
	if err != nil {
		return err
	}
	switch op {
	case opAssign:
		lhsTag, _, err := d.skimValue(nil)
		if err != nil {
			return err
		}
		if lhsTag != tagLocal && lhsTag != tagFieldRef {
			return errSkimReject // core: "assign target is not an lvalue"
		}
		_, _, err = d.skimValue(ref)
		return err
	case opInvoke:
		tag, _, err := d.skimValue(ref)
		if err != nil {
			return err
		}
		if tag != tagInvoke {
			return errSkimReject // core: "invoke statement holds ..."
		}
		return nil
	case opIf:
		if _, _, err := d.skimValue(nil); err != nil {
			return err
		}
		_, err := d.u64()
		return err
	case opGoto:
		_, err := d.u64()
		return err
	case opReturn:
		_, _, err := d.skimValue(nil)
		return err
	case opReturnVoid, opNop:
		return nil
	}
	return fmt.Errorf("unknown opcode %d", op)
}

// skimValue parses one value without materializing it, returning the
// value's tag and, for string constants, the pooled string. When top is
// non-nil and the value is an invoke, its callee lands in top.Calls (and
// a lone string-constant setClassName argument in top.Intents); the
// capture applies only at the outermost level, matching jimple.InvokeOf —
// nested invokes are not statement-level calls.
func (d *decoder) skimValue(top *MethodRef) (byte, string, error) {
	tag, err := d.byte()
	if err != nil {
		return 0, "", err
	}
	switch tag {
	case tagLocal, tagThisRef, tagNew:
		_, err := d.ref()
		return tag, "", err
	case tagIntConst:
		_, err := d.i64()
		return tag, "", err
	case tagStrConst:
		s, err := d.ref()
		return tag, s, err
	case tagNull, tagCaughtEx:
		return tag, "", nil
	case tagParamRef:
		if _, err := d.u64(); err != nil {
			return tag, "", err
		}
		_, err := d.ref()
		return tag, "", err
	case tagFieldRef:
		for i := 0; i < 3; i++ { // base, class, field
			if _, err := d.ref(); err != nil {
				return tag, "", err
			}
		}
		return tag, "", nil
	case tagInvoke:
		kind, err := d.byte()
		if err != nil {
			return tag, "", err
		}
		if kind > byte(jimple.InvokeStatic) {
			return tag, "", fmt.Errorf("bad invoke kind %d", kind)
		}
		if _, err := d.ref(); err != nil { // base
			return tag, "", err
		}
		var callee jimple.Sig
		if top != nil {
			if callee, err = d.sig(); err != nil {
				return tag, "", err
			}
		} else if err := d.skimSig(); err != nil {
			return tag, "", err
		}
		na, err := d.count("argument")
		if err != nil {
			return tag, "", err
		}
		var arg0Tag byte
		var arg0Str string
		for i := 0; i < na; i++ {
			t, s, err := d.skimValue(nil)
			if err != nil {
				return tag, "", err
			}
			if i == 0 {
				arg0Tag, arg0Str = t, s
			}
		}
		if top != nil {
			top.Calls = append(top.Calls, callee)
			if callee.Name == "setClassName" && na == 1 && arg0Tag == tagStrConst {
				top.Intents = append(top.Intents, arg0Str)
			}
		}
		return tag, "", nil
	case tagBin:
		op, err := d.byte()
		if err != nil {
			return tag, "", err
		}
		if op > byte(jimple.OpXor) {
			return tag, "", fmt.Errorf("bad binary op %d", op)
		}
		if _, _, err := d.skimValue(nil); err != nil {
			return tag, "", err
		}
		_, _, err = d.skimValue(nil)
		return tag, "", err
	case tagNeg:
		_, _, err := d.skimValue(nil)
		return tag, "", err
	case tagCast, tagInstanceOf:
		if _, err := d.ref(); err != nil {
			return tag, "", err
		}
		_, _, err := d.skimValue(nil)
		return tag, "", err
	}
	return 0, "", fmt.Errorf("unknown value tag %d", tag)
}

// skimSig consumes an encoded signature without building it.
func (d *decoder) skimSig() error {
	for i := 0; i < 2; i++ { // class, name
		if _, err := d.ref(); err != nil {
			return err
		}
	}
	np, err := d.count("param")
	if err != nil {
		return err
	}
	for i := 0; i < np; i++ {
		if _, err := d.ref(); err != nil {
			return err
		}
	}
	_, err = d.ref() // ret
	return err
}

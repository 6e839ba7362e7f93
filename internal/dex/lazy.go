package dex

import (
	"errors"
	"fmt"

	"repro/internal/jimple"
)

// This file is the lazy decode fast path every container scan opens with:
// DecodeLazy parses the container eagerly down to class headers — name,
// superclass, flags, interfaces — and retains no field, method or body.
// The member sections are validated with the eager checks in the eager
// order but built into nothing: the skim keeps where a class's fields
// start and where each method header sits, in pointer-free slabs, and
// each body section is skimmed once to delimit its byte span and fill the
// Index: the method's record, its top-level calls, the explicit-intent
// class names and its local types. The body skim (skimBody below) walks
// the same bytes the eager core walks, runs the same validation checks in
// the same order, but never materializes statement or value objects —
// the bulk of a cold decode's allocations for bodies the demand closure
// will never visit. A call is kept as pool ids plus the offset of its
// encoded signature, and a record as integers, so the skim does constant
// work per method and builds no string: keys and signatures are rendered
// only for what the closure demands. On any skim rejection the
// materializing core re-runs over the span, so malformed input fails with
// the eager path's exact error and offset.
//
// A class's fields and method headers are decoded, with the eager
// readers, the first time a program lookup returns the class (fill), and
// Materialize re-runs the eager core over a recorded span to give a
// demanded class its bodies back, so a fully materialized lazy program is
// bit-identical to an eager Decode of the same bytes.

// Lazy is a lazily decoded program: class headers, members decoded on
// first lookup, no bodies. Methods that had a body in the bytes sit in
// their class with Abstract=false and Body=nil (HasBody false) until the
// class is materialized. Lookups may run concurrently (the program fills
// members under a lock), but Materialize may not: materialize before
// sharing the program.
type Lazy struct {
	idx *Index
	// locals holds the local-type pool ids of every recorded body;
	// MethodRef.locals spans into it.
	locals []int32
	// members locates the member sections of each class, by its position
	// in the container: the slot the program defers the class under.
	members []classMembers
	// hdrs holds the offset of every method header, class by class, in
	// declaration order. A has-body method whose body holds no statement
	// (normalized to abstract) is stored as ^offset.
	hdrs         []int32
	materialized []bool // by class slot
	// fallbacks counts bodies the skim rejected but the materializing
	// core accepted (a skim bug); their records come from the decoded
	// body instead.
	fallbacks int
	// filler decodes members for fill. The program runs fill under its
	// member lock, so one decoder, and its slabs, serves every class.
	filler decoder
}

// classMembers locates one class in the container: its header, its field
// section, and its method headers hdrs[mlo:mhi].
type classMembers struct{ at, fields, mlo, mhi int32 }

// lazyBuild is the skim's state while the container parses.
type lazyBuild struct {
	l *Lazy
	// poolName caches the name id of a pool index (id+1; 0 = not yet
	// looked up), so a method name is hashed once per pool entry.
	poolName []int32
	// localScratch holds the local-type pool ids of the body being
	// skimmed.
	localScratch []int32
}

// DecodeLazy parses bytes produced by Encode into a Lazy program. It
// accepts and rejects exactly the inputs Decode does: the skim shares the
// eager decoder core statement for statement.
func DecodeLazy(data []byte) (*Lazy, error) {
	l := &Lazy{idx: &Index{src: data, nameIDs: make(map[string]int32)}}
	d := &decoder{data: data, lazy: &lazyBuild{l: l}}
	prog, err := d.run()
	if err != nil {
		return nil, fmt.Errorf("dex: %w (at offset %d)", err, d.pos)
	}
	l.idx.prog, l.idx.pool = prog, d.pool
	l.filler = decoder{data: data, pool: d.pool}
	if prog.NumClasses() < len(l.members) {
		// A later class replaced an earlier one of the same name.
		l.dropReplaced()
	}
	l.idx.finish()
	l.materialized = make([]bool, len(l.idx.classes))
	return l, nil
}

// nameOf returns the name id of the method name at pool index p.
func (d *decoder) nameOf(p int32) int32 {
	b := d.lazy
	if b.poolName == nil {
		b.poolName = make([]int32, len(d.pool))
	}
	if id := b.poolName[p]; id != 0 {
		return id - 1
	}
	id := b.l.idx.nameID(d.pool[p])
	b.poolName[p] = id + 1
	return id
}

// dropReplaced removes the records of classes a later class of the same
// name replaced in the program (Program.AddClass keeps the last), so the
// index describes exactly the decoded program.
func (l *Lazy) dropReplaced() {
	x := l.idx
	last := make(map[string]int32, len(l.members))
	d := decoder{data: x.src, pool: x.pool}
	for i, cm := range l.members {
		d.pos = int(cm.at)
		name, _ := d.ref() // the skim validated it
		last[name] = int32(i)
	}
	kept := x.classes[:0]
	recs := make([]MethodRef, 0, len(x.recs))
	for _, c := range x.classes {
		if last[c.name] != c.ord {
			continue
		}
		lo := int32(len(recs))
		for _, r := range x.recs[c.lo:c.hi] {
			r.Class = int32(len(kept))
			recs = append(recs, r)
		}
		c.lo, c.hi = lo, int32(len(recs))
		kept = append(kept, c)
	}
	x.classes, x.recs = kept, recs
}

// fill decodes the fields and method headers of the class deferred under
// slot into c, with the eager readers. The program calls it once per
// class, under its member lock. The skim validated these bytes, so an
// error means they changed underneath.
func (l *Lazy) fill(c *jimple.Class, slot int32) {
	cm := l.members[slot]
	d := &l.filler
	d.pos = int(cm.fields)
	err := d.fieldSection(c)
	if hdrs := l.hdrs[cm.mlo:cm.mhi]; err == nil && len(hdrs) > 0 {
		methods := d.methods.take(len(hdrs))
		c.Methods = d.methodPtrs.take(len(hdrs))
		for i, at := range hdrs {
			m := &methods[i]
			d.pos = int(max(at, ^at))
			if _, err = d.methodHeader(m); err != nil {
				break
			}
			// The empty-body normalization, as the skim saw it.
			m.Abstract = m.Abstract || at < 0
			c.Methods[i] = m
		}
	}
	if err != nil {
		panic(fmt.Sprintf("dex: decoding the members of %s: %v", c.Name, err))
	}
}

// Program returns the program. Its classes' members are decoded on first
// lookup, and Materialize adds bodies in place; after MaterializeAll it
// is bit-identical to an eager Decode.
func (l *Lazy) Program() *jimple.Program { return l.idx.prog }

// Index returns the skim index of the body-bearing methods.
func (l *Lazy) Index() *Index { return l.idx }

// NumBodiedClasses returns how many classes have at least one
// body-bearing method (the denominator of the decoded/skipped counters).
func (l *Lazy) NumBodiedClasses() int { return len(l.idx.classes) }

// EachRefClass calls fn on every class name the program references
// (supertypes, interfaces, invoked classes, local types) — what
// apimodel.LibsUsedByRefs resolves, computed without retained bodies or
// decoded members. The skim keeps invoked classes and local types as pool
// ids, and each distinct id is passed once; a name may still repeat (a
// supertype, or a string the pool holds twice), and "" may appear for a
// root class.
func (l *Lazy) EachRefClass(fn func(string)) {
	x := l.idx
	seen := make([]bool, len(x.pool))
	note := func(p int32) {
		if !seen[p] {
			seen[p] = true
			fn(x.pool[p])
		}
	}
	for i := range x.recs {
		r := &x.recs[i]
		for _, c := range x.calls[r.calls.lo:r.calls.hi] {
			if c.class >= 0 {
				note(c.class)
			} else {
				fn(x.sigs[c.at].Class)
			}
		}
		for _, t := range l.locals[r.locals.lo:r.locals.hi] {
			note(t)
		}
	}
	x.prog.EachOwnHeader(func(c *jimple.Class) {
		fn(c.Super)
		for _, i := range c.Interfaces {
			fn(i)
		}
	})
}

// Materialize decodes the retained body spans of one class into the
// program, idempotently. The spans were fully skimmed at DecodeLazy
// time, so an error here means the underlying bytes changed — callers may
// treat it as impossible for data they own.
func (l *Lazy) Materialize(class string) error {
	x := l.idx
	slot, ok := x.ClassSlot(class)
	if !ok || l.materialized[slot] {
		return nil
	}
	l.materialized[slot] = true
	c := x.classes[slot]
	methods := x.prog.OwnClass(class).Methods
	d := &decoder{data: x.src, pool: x.pool}
	for _, r := range x.recs[c.lo:c.hi] {
		// Step over the header, signature and flags, to the body.
		d.pos = int(r.hdr)
		_, _, err := d.skimSig()
		if err == nil {
			_, err = d.byte()
		}
		if err == nil {
			err = d.body(methods[r.ord])
		}
		if err != nil {
			return fmt.Errorf("dex: %w (at offset %d)", err, d.pos)
		}
	}
	return nil
}

// MaterializeAll decodes every retained body, leaving the program equal
// to an eager Decode — what dynamic validation needs before it replays
// the app.
func (l *Lazy) MaterializeAll() error {
	for _, c := range l.idx.classes {
		if err := l.Materialize(c.name); err != nil {
			return err
		}
	}
	return nil
}

// skimMembers validates the field and method sections of class c, whose
// header starts at offset at, with the eager checks in the eager order,
// building nothing: it records where the sections are, and the skim
// record of each bodied method.
func (d *decoder) skimMembers(c *jimple.Class, at int) error {
	l := d.lazy.l
	cm := classMembers{at: int32(at), fields: int32(d.pos)}
	nf, err := d.count("field")
	if err != nil {
		return err
	}
	for i := 0; i < nf; i++ {
		for j := 0; j < 2; j++ { // name, type
			if _, err := d.refIdx(); err != nil {
				return err
			}
		}
		if _, err := d.byte(); err != nil { // flags
			return err
		}
	}
	nm, err := d.count("method")
	if err != nil {
		return err
	}
	cm.mlo = int32(len(l.hdrs))
	recLo := len(l.idx.recs)
	for ord := 0; ord < nm; ord++ {
		if err := d.skimMethod(int32(ord)); err != nil {
			return err
		}
	}
	cm.mhi = int32(len(l.hdrs))
	l.idx.endClass(c.Name, recLo, int32(len(l.members)))
	l.members = append(l.members, cm)
	return nil
}

// skimMethod validates one method, header then body, with the eager
// checks in the eager order: it records the header's offset and, for a
// bodied method, its skim record. ord is the method's position in its
// class.
func (d *decoder) skimMethod(ord int32) error {
	l := d.lazy.l
	at := d.pos
	_, name, err := d.skimSig()
	if err != nil {
		return err
	}
	flags, err := d.byte()
	if err != nil {
		return err
	}
	hdr := int32(at)
	if flags&mflagHasBody != 0 {
		if flags&mflagAbstract != 0 {
			// The eager error names the method: decode its signature on
			// this path only.
			end := d.pos
			d.pos = at
			sig, _ := d.sig()
			d.pos = end
			return errAbstractBody(sig)
		}
		empty, err := d.lazyBody(name, ord, hdr)
		if err != nil {
			return err
		}
		if empty {
			hdr = ^hdr
		}
	}
	l.hdrs = append(l.hdrs, hdr)
	return nil
}

// lazyBody skims the body section at d.pos without materializing
// statements and appends the method's record to the index. name is the
// pool index of the method's name, ord its position in its class and hdr
// the offset of its header. empty reports the empty-body normalization:
// the body holds no statement, and the method is abstract.
func (d *decoder) lazyBody(name, ord, hdr int32) (empty bool, err error) {
	b := d.lazy
	l, x := b.l, b.l.idx
	start := d.pos
	r := MethodRef{Name: d.nameOf(name), Class: int32(len(x.classes)), ord: ord, hdr: hdr}
	r.calls.lo, r.intents.lo, r.locals.lo = int32(len(x.calls)), int32(len(x.intents)), int32(len(l.locals))
	empty, err = d.skimBody()
	if err != nil {
		// Re-run the materializing core over the same span: malformed input
		// fails with the eager path's exact error and offset, and a span the
		// core accepts (a skim divergence: counted, and pinned at zero by
		// the tests) takes its record from the materialized body so the two
		// paths cannot drift.
		x.calls, x.intents, l.locals = x.calls[:r.calls.lo], x.intents[:r.intents.lo], l.locals[:r.locals.lo]
		d.pos = start
		var tmp jimple.Method
		if coreErr := d.body(&tmp); coreErr != nil {
			return false, coreErr
		}
		l.fallbacks++
		empty = !tmp.HasBody()
		if !empty {
			// The skim read every local before it failed: the core
			// accepted the same local section.
			l.locals = append(l.locals, b.localScratch...)
			x.addBody(&r, &tmp)
		}
	}
	if empty {
		return true, nil
	}
	r.calls.hi, r.intents.hi, r.locals.hi = int32(len(x.calls)), int32(len(x.intents)), int32(len(l.locals))
	x.recs = append(x.recs, r)
	return false, nil
}

// errSkimReject marks a structural check the skim cannot phrase exactly
// (the eager error interpolates the materialized value's dynamic type);
// lazyBody's fallback re-run produces the real error.
var errSkimReject = errors.New("dex: skim rejected span")

// skimBody mirrors decoder.body over the same bytes with the same checks
// in the same order, but keeps only the record's calls, intents and
// local types. empty reports whether the section holds zero statements
// (the empty-body normalization case).
func (d *decoder) skimBody() (empty bool, err error) {
	b := d.lazy
	nl, err := d.count("local")
	if err != nil {
		return false, err
	}
	b.localScratch = b.localScratch[:0]
	for i := 0; i < nl; i++ {
		if _, err := d.refIdx(); err != nil { // name
			return false, err
		}
		t, err := d.refIdx()
		if err != nil {
			return false, err
		}
		b.localScratch = append(b.localScratch, t)
	}
	ns, err := d.count("statement")
	if err != nil {
		return false, err
	}
	if ns > 0 {
		// Empty bodies normalize to abstract stubs with their locals
		// dropped, so their local types must not be recorded.
		b.l.locals = append(b.l.locals, b.localScratch...)
	}
	for i := 0; i < ns; i++ {
		if err := d.skimStmt(); err != nil {
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
		if _, err := d.refIdx(); err != nil { // exception
			return false, err
		}
	}
	return ns == 0, nil
}

func (d *decoder) skimStmt() error {
	op, err := d.byte()
	if err != nil {
		return err
	}
	switch op {
	case opAssign:
		lhsTag, _, err := d.skimValue(false)
		if err != nil {
			return err
		}
		if lhsTag != tagLocal && lhsTag != tagFieldRef {
			return errSkimReject // core: "assign target is not an lvalue"
		}
		_, _, err = d.skimValue(true)
		return err
	case opInvoke:
		tag, _, err := d.skimValue(true)
		if err != nil {
			return err
		}
		if tag != tagInvoke {
			return errSkimReject // core: "invoke statement holds ..."
		}
		return nil
	case opIf:
		if _, _, err := d.skimValue(false); err != nil {
			return err
		}
		_, err := d.u64()
		return err
	case opGoto:
		_, err := d.u64()
		return err
	case opReturn, opThrow:
		_, _, err := d.skimValue(false)
		return err
	case opReturnVoid, opNop:
		return nil
	}
	return fmt.Errorf("unknown opcode %d", op)
}

// skimValue parses one value without materializing it, returning the
// value's tag and, for string constants, the pool index. When top is set
// and the value is an invoke, its callee id joins the record's calls (and
// a lone string-constant setClassName argument its intents); the capture
// applies only at the outermost level, matching jimple.InvokeOf — nested
// invokes are not statement-level calls.
func (d *decoder) skimValue(top bool) (byte, int32, error) {
	tag, err := d.byte()
	if err != nil {
		return 0, 0, err
	}
	switch tag {
	case tagLocal, tagThisRef, tagNew:
		_, err := d.refIdx()
		return tag, 0, err
	case tagIntConst:
		_, err := d.i64()
		return tag, 0, err
	case tagStrConst:
		s, err := d.refIdx()
		return tag, s, err
	case tagNull, tagCaughtEx:
		return tag, 0, nil
	case tagParamRef:
		if _, err := d.u64(); err != nil {
			return tag, 0, err
		}
		_, err := d.refIdx()
		return tag, 0, err
	case tagFieldRef:
		for i := 0; i < 3; i++ { // base, class, field
			if _, err := d.refIdx(); err != nil {
				return tag, 0, err
			}
		}
		return tag, 0, nil
	case tagInvoke:
		kind, err := d.byte()
		if err != nil {
			return tag, 0, err
		}
		if kind > byte(jimple.InvokeStatic) {
			return tag, 0, fmt.Errorf("bad invoke kind %d", kind)
		}
		if _, err := d.refIdx(); err != nil { // base
			return tag, 0, err
		}
		sigAt := d.pos
		class, name, err := d.skimSig()
		if err != nil {
			return tag, 0, err
		}
		na, err := d.count("argument")
		if err != nil {
			return tag, 0, err
		}
		var arg0Tag byte
		var arg0Str int32
		for i := 0; i < na; i++ {
			t, s, err := d.skimValue(false)
			if err != nil {
				return tag, 0, err
			}
			if i == 0 {
				arg0Tag, arg0Str = t, s
			}
		}
		if top {
			x := d.lazy.l.idx
			x.calls = append(x.calls, Call{Name: d.nameOf(name), class: class, at: int32(sigAt)})
			if d.pool[name] == "setClassName" && na == 1 && arg0Tag == tagStrConst {
				x.intents = append(x.intents, d.pool[arg0Str])
			}
		}
		return tag, 0, nil
	case tagBin:
		op, err := d.byte()
		if err != nil {
			return tag, 0, err
		}
		if op > byte(jimple.OpXor) {
			return tag, 0, fmt.Errorf("bad binary op %d", op)
		}
		if _, _, err := d.skimValue(false); err != nil {
			return tag, 0, err
		}
		_, _, err = d.skimValue(false)
		return tag, 0, err
	case tagNeg:
		_, _, err := d.skimValue(false)
		return tag, 0, err
	case tagCast, tagInstanceOf:
		if _, err := d.refIdx(); err != nil {
			return tag, 0, err
		}
		_, _, err := d.skimValue(false)
		return tag, 0, err
	}
	return 0, 0, fmt.Errorf("unknown value tag %d", tag)
}

// skimSig consumes an encoded signature without building it, returning
// the pool ids of its class and method name.
func (d *decoder) skimSig() (class, name int32, err error) {
	if class, err = d.refIdx(); err != nil {
		return
	}
	if name, err = d.refIdx(); err != nil {
		return
	}
	np, err := d.count("param")
	if err != nil {
		return
	}
	for i := 0; i < np; i++ {
		if _, err = d.refIdx(); err != nil {
			return
		}
	}
	_, err = d.refIdx() // ret
	return
}

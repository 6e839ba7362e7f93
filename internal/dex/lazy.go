package dex

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"sync"

	"repro/internal/jimple"
)

// This file is the lazy decode fast path every container scan opens with:
// DecodeLazy parses the container down to class headers — name,
// superclass, flags, interfaces — which it keeps as type ids in a
// classTable (classes.go), and builds no class, field, method or body.
// The member sections are validated with the eager checks in the eager
// order but built into nothing: the skim keeps where a class's fields
// start and where each method header sits, in pointer-free slabs, and
// each body section is skimmed once to delimit its byte span and fill the
// Index: the method's record, its top-level calls and the explicit-intent
// class names, while the supertypes, callee classes and local types it
// reads are marked in a set of pool ids (EachRefClass). The body skim
// (skimBody below) walks the same bytes the eager core walks and runs the
// same validation checks in the same order, but it only validates: it
// never materializes statement or value objects — the bulk of a cold
// decode's allocations for bodies the demand closure will never visit —
// and never phrases an error. A call is kept as pool ids plus the offset
// of its encoded signature, and a record as integers, so the skim does
// constant work per method and builds no string: keys and signatures are
// rendered only for what the closure demands. On any skim rejection the
// materializing core re-runs over the span, so malformed input fails with
// the eager path's exact error and offset.
//
// The skim appends to pooled scratch (lazyBuild), and when the open ends
// its index keeps a copy of each slab: in the arrays of an earlier open
// that gave its memory back (Release) when they have the room, else at
// exact size. Either way an app that is never released costs what its
// index keeps rather than the doublings of growing it, and a scan that
// releases its app allocates none of it. DESIGN.md §13 ("A scan returns
// what it opened") states the ownership rule.
//
// The program (jimple.NewLazyProgram) builds a class — its header and,
// with the eager readers, its fields and method headers — the first time
// a lookup reaches it (BuildClass), and Materialize re-runs the eager
// core over a recorded span to give a demanded class its bodies back, so
// a fully materialized lazy program is bit-identical to an eager Decode
// of the same bytes.

// Lazy is a lazily decoded program: class headers, each class built on
// first lookup, no bodies. Methods that had a body in the bytes sit in
// their class with Abstract=false and Body=nil (HasBody false) until the
// class is materialized. Lookups may run concurrently (the program builds
// classes under a lock), but Materialize may not: materialize before
// sharing the program. Lazy is the program's jimple.ClassSource.
type Lazy struct {
	idx *Index
	// refs has a bit per string-pool id the program references as a
	// class: each live class's superclass and interfaces, the class of
	// each top-level call and the type of each local of a non-empty body.
	// refNames adds the callee classes of the records a fallback took from
	// a decoded body, which hold no pool id.
	refs     []uint64
	refNames []string
	// hdrs holds the offset of every method header, class by class, in
	// declaration order. A has-body method whose body holds no statement
	// (normalized to abstract) is stored as ^offset.
	hdrs         []int32
	materialized []bool // by bodied-class slot
	// numSlots and numLive count the container's classes and the live
	// ones; they outlive Release.
	numSlots, numLive int
	// fallbacks counts bodies the skim rejected but the materializing
	// core accepted (a skim bug); their records come from the decoded
	// body instead.
	fallbacks int
	// dec builds classes for BuildClass and decodes bodies for
	// Materialize. The program builds under its lock, and Materialize
	// runs before the program is shared, so one decoder, and its slabs,
	// serves every class.
	dec decoder
	// released marks a Lazy whose arrays have gone back (Release).
	released bool
}

// slabs are the arrays the skim appends to: the index's records, calls,
// intents and bodied-class spans, and the method-header offsets.
type slabs struct {
	recs    []MethodRef
	calls   []Call
	intents []string
	classes []classSpan
	hdrs    []int32
}

// lazyBuild is the skim's state while the container parses. It is
// scratch, reused across opens through buildPool: the skim appends to
// the index's slabs in its growable backing arrays, which the build gets
// back when the open ends (release), so a steady stream of opens stops
// growing slices.
type lazyBuild struct {
	l *Lazy
	// The backing arrays of the slabs while no open holds them.
	slabs
	// reuse holds the arrays of a released open that this open takes its
	// other arrays from, where they have the room (see spare); all nil
	// when the open found none.
	reuse spare
	// poolName caches the name id of a pool index (id+1; 0 = not yet
	// looked up), so a method name is hashed once per pool entry;
	// poolType is the decoder's type-id memo (decoder.poolType).
	poolName, poolType []int32
	// locals holds the local-type pool ids of the body being skimmed.
	locals []int32
	// colour and stack are the cycle check's.
	colour []byte
	stack  []cycleFrame
}

var buildPool = sync.Pool{New: func() any { return new(lazyBuild) }}

// spare holds the arrays of a released open for a later open to reuse:
// what only the open holds — its index's slabs, string-pool slice, key
// table and caller, declarer and subtype tables, its class table, and its
// referenced-class set and materialized flags. Nothing a Result, the
// program or a registry memo can reach goes in, and no memory backing a
// string: the pool text and the decoder's slabs stay with the collector.
// The string-holding arrays are cleared, to their capacity, before a
// spare is pooled, so the pool keeps no container alive.
type spare struct {
	slabs
	pool         []string
	keys         []string
	headers      []classHeader
	ifaces, tab  []int32
	types        []typeEntry
	refs         []uint64
	materialized []bool
	offs, ids    []int32
}

// sparePool holds released opens' spares; an open that finds none
// allocates as if no open had ever been released.
var sparePool sync.Pool

// clearStrings drops every string s's arrays hold.
func (s *spare) clearStrings() {
	clear(s.intents[:cap(s.intents)])
	clear(s.classes[:cap(s.classes)])
	clear(s.pool[:cap(s.pool)])
	clear(s.keys[:cap(s.keys)])
}

// reuse returns s resliced to n zeroed elements when it has the room, and
// a new slice of n elements when it has not.
func reuse[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// DecodeLazy parses bytes produced by Encode into a Lazy program. It
// accepts and rejects exactly the inputs Decode does, with the same
// error: the skim runs the eager decoder's checks in the eager order, and
// the eager core phrases any rejection. A caller that is done with the
// program calls Release, so the next open reuses its memory.
func DecodeLazy(data []byte) (*Lazy, error) {
	l := &Lazy{idx: &Index{src: data, nameIDs: make(map[string]int32)}}
	b := buildPool.Get().(*lazyBuild)
	// Empty the holder: the open owns the arrays it held now. A failed
	// open pools it again; a good one drops it, and Release pools a new one.
	held, _ := sparePool.Get().(*spare)
	if held != nil {
		b.reuse, *held = *held, spare{}
	}
	b.acquire(l)
	d := &decoder{data: data, lazy: b}
	_, err := d.run()
	if err == nil {
		l.idx.pool = d.pool
		if l.idx.cls.replaced {
			// A later class replaced an earlier one of the same name.
			l.dropReplaced()
		}
	}
	reused := b.reuse
	b.release(err == nil)
	if err != nil {
		if held != nil {
			// The failed open may have written pool strings into the
			// reused arrays.
			*held = reused
			held.clearStrings()
			sparePool.Put(held)
		}
		return nil, fmt.Errorf("dex: %w (at offset %d)", err, d.pos)
	}
	x := l.idx
	l.dec = decoder{data: data, pool: d.pool, ct: &x.cls}
	x.finish(&reused)
	l.materialized = reuse(reused.materialized, len(x.classes))
	l.numSlots, l.numLive = len(x.cls.headers), x.cls.live
	x.prog = jimple.NewLazyProgram(l)
	return l, nil
}

// acquire points the slabs the skim fills at b's backing arrays.
func (b *lazyBuild) acquire(l *Lazy) {
	x := l.idx
	b.l = l
	x.recs, x.calls, x.intents, x.classes, l.hdrs = b.recs[:0], b.calls[:0], b.intents[:0], b.classes[:0], b.hdrs[:0]
}

// release takes the backing arrays back from the open and returns b to
// the pool, with the strings the arrays hold cleared so the pool keeps no
// container alive. When keep is set the open succeeded, and its index
// keeps a copy of each slab (keepSlab); a failed open keeps nothing.
func (b *lazyBuild) release(keep bool) {
	l := b.l
	x := l.idx
	b.slabs = slabs{x.recs, x.calls, x.intents, x.classes, l.hdrs}
	if keep {
		s := &b.reuse
		x.recs = keepSlab(x.recs, s.recs)
		x.calls = keepSlab(x.calls, s.calls)
		x.intents = keepSlab(x.intents, s.intents)
		x.classes = keepSlab(x.classes, s.classes)
		l.hdrs = keepSlab(l.hdrs, s.hdrs)
	}
	clear(b.intents[:cap(b.intents)])
	clear(b.classes[:cap(b.classes)])
	b.l, b.reuse = nil, spare{}
	buildPool.Put(b)
}

// keepSlab returns the copy of a slab the skim grew that the index keeps:
// in released, the array of a released open (nil for none), when it has
// the room, so the copy allocates nothing; otherwise at exact size, as an
// open that reused nothing copies it.
func keepSlab[T any](grown, released []T) []T {
	if cap(released) >= len(grown) {
		return append(released[:0], grown...)
	}
	return exact(grown)
}

// exact returns a copy of s that shares no memory with it and has no
// spare capacity, nil if s is empty: what an index keeps must not alias
// the pooled arrays.
func exact[T any](s []T) []T {
	if len(s) == 0 {
		return nil
	}
	out := make([]T, len(s))
	copy(out, s)
	return out
}

// Release gives the open's arrays back for a later open to reuse (see
// spare). The caller must be done with the program and the index: an
// own-class lookup, a Materialize, an EachRefClass or an Index after
// Release panics rather than read recycled memory, while the strings,
// signatures and classes already obtained stay valid. Release is
// idempotent. It may not run concurrently with any other use of the
// program.
func (l *Lazy) Release() {
	if l == nil || l.released {
		return
	}
	l.released = true
	x := l.idx
	s := &spare{
		slabs:        slabs{x.recs, x.calls, x.intents, x.classes, l.hdrs},
		pool:         x.pool,
		keys:         x.keys,
		headers:      x.cls.headers,
		ifaces:       x.cls.ifaces,
		tab:          x.cls.tab,
		types:        x.cls.types,
		refs:         l.refs,
		materialized: l.materialized,
		offs:         x.offs,
		ids:          x.ids,
	}
	s.clearStrings()
	*x = Index{prog: x.prog}
	l.refs, l.refNames, l.hdrs, l.materialized = nil, nil, nil, nil
	l.dec = decoder{}
	sparePool.Put(s)
}

// live panics if l has been released.
func (l *Lazy) live() {
	if l.released {
		panic("dex: use of a lazily decoded program after Lazy.Release")
	}
}

// begin sizes the open's state for n classes and the decoded string
// pool.
func (b *lazyBuild) begin(d *decoder, n int) {
	l := b.l
	d.ct = &l.idx.cls
	d.ct.begin(n, &b.reuse)
	l.refs = reuse(b.reuse.refs, (len(d.pool)+63)/64)
	b.poolName = reuse(b.poolName, len(d.pool))
	b.poolType = reuse(b.poolType, len(d.pool))
	d.poolType = b.poolType
}

// nameOf returns the name id of the method name at pool index p.
func (d *decoder) nameOf(p int32) int32 {
	b := d.lazy
	if id := b.poolName[p]; id != 0 {
		return id - 1
	}
	id := b.l.idx.nameID(d.pool[p])
	b.poolName[p] = id + 1
	return id
}

// markRef sets the bit of pool id p in the referenced-class set.
func (l *Lazy) markRef(p int32) { l.refs[p>>6] |= 1 << (p & 63) }

// markLocals reads the local section at d.pos with the eager readers and
// marks its types: the local refs of a record the skim did not build
// itself. The skim validated the section.
func (d *decoder) markLocals(l *Lazy) {
	nl, _ := d.count("local")
	for i := 0; i < nl; i++ {
		d.refIdx() // name
		t, _ := d.refIdx()
		l.markRef(t)
	}
}

// markCalls adds the callee classes of calls to the referenced-class set.
func (l *Lazy) markCalls(calls []Call) {
	for _, c := range calls {
		if c.class >= 0 {
			l.markRef(c.class)
		} else {
			l.refNames = append(l.refNames, l.idx.sigs[c.at].Class)
		}
	}
}

// dropReplaced removes the records of classes a later class of the same
// name replaced in the program (Program.AddClass keeps the last), so the
// index describes exactly the decoded program, and rebuilds the
// referenced-class set from the headers and records it keeps.
func (l *Lazy) dropReplaced() {
	x := l.idx
	t := &x.cls
	d := decoder{data: x.src, pool: x.pool}
	clear(l.refs)
	l.refNames = nil
	for slot := range t.headers {
		if h := &t.headers[slot]; t.isLive(int32(slot)) {
			l.markRef(t.types[h.super].name)
			for _, id := range t.ifaces[h.ifaces.lo:h.ifaces.hi] {
				l.markRef(t.types[id].name)
			}
		}
	}
	// The kept records move down in place: a record's new position is
	// never past its old one.
	kept, n := x.classes[:0], int32(0)
	for _, c := range x.classes {
		if !t.isLive(c.ord) {
			continue
		}
		lo := n
		for _, r := range x.recs[c.lo:c.hi] {
			r.Class = int32(len(kept))
			x.recs[n] = r
			n++
			l.markCalls(x.calls[r.calls.lo:r.calls.hi])
			_ = d.toBody(r.hdr) // the skim validated the header
			d.markLocals(l)
		}
		c.lo, c.hi = lo, n
		kept = append(kept, c)
	}
	x.classes, x.recs = kept, x.recs[:n]
}

// OwnSlot returns the slot of the live class named name: a probe of the
// class table, building nothing.
func (l *Lazy) OwnSlot(name string) (int32, bool) {
	l.live()
	t := &l.idx.cls
	if id := t.find(l.idx.pool, name); id >= 0 && t.types[id].own != 0 {
		return t.types[id].own - 1, true
	}
	return 0, false
}

// BuildClass builds the class at a live slot: its header from the class
// table, and its fields and method headers with the eager readers. The
// program calls it once per class, under its build lock. The skim
// validated these bytes, so an error means they changed underneath.
func (l *Lazy) BuildClass(slot int32) *jimple.Class {
	l.live()
	d := &l.dec
	h := &d.ct.headers[slot]
	c := &d.classes.take(1)[0]
	d.setHeader(c, slot)
	d.pos = int(h.fields)
	err := d.fieldSection(c)
	if hdrs := l.hdrs[h.mlo:h.mhi]; err == nil && len(hdrs) > 0 {
		methods := d.methods.take(len(hdrs))
		c.Methods = d.methodPtrs.take(len(hdrs))
		for i, at := range hdrs {
			m := &methods[i]
			d.pos = int(max(at, ^at))
			if _, err = d.methodHeader(m, c.Name); err != nil {
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
	return c
}

// NumSlots returns the number of classes in the container.
func (l *Lazy) NumSlots() int { return l.numSlots }

// NumOwnClasses returns the number of live classes: the container's
// classes less those a later class of the same name replaced.
func (l *Lazy) NumOwnClasses() int { return l.numLive }

// EachLiveSlot calls fn on the slot of every live class, ascending.
func (l *Lazy) EachLiveSlot(fn func(slot int32)) {
	l.live()
	t := &l.idx.cls
	for slot := range t.headers {
		if t.isLive(int32(slot)) {
			fn(int32(slot))
		}
	}
}

// OwnSubs returns the live slots whose class has t as its superclass or
// as one of its interfaces, a slot per such edge: a lookup in the index's
// subtype table.
func (l *Lazy) OwnSubs(t string) []int32 {
	l.live()
	ct := &l.idx.cls
	if id := ct.find(l.idx.pool, t); id >= 0 {
		return ct.subs.of(id)
	}
	return nil
}

// ClassName returns the name of the class at slot.
func (l *Lazy) ClassName(slot int32) string {
	l.live()
	ct := &l.idx.cls
	return ct.name(l.idx.pool, ct.headers[slot].name)
}

// Program returns the program. Its classes are built on first lookup,
// and Materialize adds bodies in place; after MaterializeAll it is
// bit-identical to an eager Decode.
func (l *Lazy) Program() *jimple.Program { return l.idx.prog }

// Index returns the skim index of the body-bearing methods.
func (l *Lazy) Index() *Index {
	l.live()
	return l.idx
}

// NumBodiedClasses returns how many classes have at least one
// body-bearing method (the denominator of the decoded/skipped counters).
func (l *Lazy) NumBodiedClasses() int { return len(l.idx.classes) }

// EachRefClass calls fn on every class name the program references
// (supertypes, interfaces, invoked classes, local types) — what
// apimodel.LibsUsedByRefs resolves, computed without retained bodies or
// built classes. The open marked them in a set of pool ids, so this walks
// the set, not the headers or the records. Each marked id is passed once;
// a name may still repeat (a string the pool holds twice), and "" may
// appear for a root class.
func (l *Lazy) EachRefClass(fn func(string)) {
	l.live()
	pool := l.idx.pool
	for w, word := range l.refs {
		for ; word != 0; word &= word - 1 {
			fn(pool[w<<6+bits.TrailingZeros64(word)])
		}
	}
	for _, name := range l.refNames {
		fn(name)
	}
}

// Materialize decodes the retained body spans of the given classes into
// the program, idempotently. The spans were fully skimmed at DecodeLazy
// time, so an error here means the underlying bytes changed — callers may
// treat it as impossible for data they own.
//
// The bodies' slices and statement nodes are carved from slabs sized by
// a first skim of the spans, which tallies their locals, statements and
// traps, so one call takes one exact chunk of each, and a value naming a
// pool string (a local, say) is boxed once per call: a caller with
// several classes to decode passes them together. Should that skim fail
// anyway, the slabs simply grow as the decode goes.
func (l *Lazy) Materialize(classes ...string) error {
	l.live()
	x := l.idx
	d := &l.dec
	var n bodyCounts
	for _, class := range classes {
		slot, ok := x.ClassSlot(class)
		if !ok || l.materialized[slot] {
			continue
		}
		c := x.classes[slot]
		for _, r := range x.recs[c.lo:c.hi] {
			if d.toBody(r.hdr) != nil {
				break
			}
			if _, ok := d.skimBody(&n); !ok {
				break
			}
		}
	}
	d.reserve(&n)
	d.resetBoxes()
	for _, class := range classes {
		slot, ok := x.ClassSlot(class)
		if !ok || l.materialized[slot] {
			continue
		}
		l.materialized[slot] = true
		c := x.classes[slot]
		methods := x.prog.OwnClass(class).Methods
		for _, r := range x.recs[c.lo:c.hi] {
			err := d.toBody(r.hdr)
			if err == nil {
				err = d.body(methods[r.ord])
			}
			if err != nil {
				return fmt.Errorf("dex: %w (at offset %d)", err, d.pos)
			}
		}
	}
	return nil
}

// toBody moves d from the method header at hdr over its signature and
// flags, to its body section.
func (d *decoder) toBody(hdr int32) error {
	d.pos = int(hdr)
	if _, _, err := d.skimSig(); err != nil {
		return err
	}
	_, err := d.byte()
	return err
}

// MaterializeAll decodes every retained body, leaving the program equal
// to an eager Decode — what dynamic validation needs before it replays
// the app, and re-encoding before it writes the app out. A nil Lazy, the
// handle of a program built in memory, has nothing to decode.
func (l *Lazy) MaterializeAll() error {
	if l == nil {
		return nil
	}
	l.live()
	names := make([]string, len(l.idx.classes))
	for i, c := range l.idx.classes {
		names[i] = c.name
	}
	return l.Materialize(names...)
}

// skimClass validates the class at d.pos, header and members, with the
// eager checks in the eager order, building nothing: it reads the header
// into the class table, and records where the member sections are and
// the skim record of each bodied method.
func (d *decoder) skimClass() error {
	slot, err := d.classHeader()
	if err != nil {
		return err
	}
	l := d.lazy.l
	h := &d.ct.headers[slot]
	owner := d.ct.name(d.pool, h.name)
	h.fields = int32(d.pos)
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
	h.mlo = int32(len(l.hdrs))
	recLo := len(l.idx.recs)
	for ord := 0; ord < nm; ord++ {
		if err := d.skimMethod(owner, int32(ord)); err != nil {
			return err
		}
	}
	h.mhi = int32(len(l.hdrs))
	l.idx.endClass(owner, recLo, slot)
	return nil
}

// skimMethod validates one method, header then body, with the eager
// checks in the eager order: it records the header's offset and, for a
// bodied method, its skim record. owner is the declaring class, which the
// signature must name, and ord the method's position in it.
func (d *decoder) skimMethod(owner string, ord int32) error {
	l := d.lazy.l
	at := d.pos
	class, name, err := d.skimSig()
	if err != nil {
		return err
	}
	// Compare strings, not pool ids: the pool may hold a string twice.
	if d.pool[class] != owner {
		end := d.pos
		d.pos = at
		sig, _ := d.sig()
		d.pos = end
		return errForeignMethod(sig, owner)
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
	r.calls.lo, r.intents.lo = int32(len(x.calls)), int32(len(x.intents))
	empty, ok := d.skimBody(nil)
	if ok && !empty {
		for _, t := range b.locals {
			l.markRef(t)
		}
		for _, c := range x.calls[r.calls.lo:] {
			l.markRef(c.class)
		}
	} else if !ok {
		// Re-run the materializing core over the same span: malformed input
		// fails with the eager path's exact error and offset, and a span the
		// core accepts (a skim divergence: counted, and pinned at zero by
		// the tests) takes its record from the materialized body so the two
		// paths cannot drift.
		x.calls, x.intents = x.calls[:r.calls.lo], x.intents[:r.intents.lo]
		d.pos = start
		var tmp jimple.Method
		if err := d.body(&tmp); err != nil {
			return false, err
		}
		l.fallbacks++
		empty = !tmp.HasBody()
		if !empty {
			x.addBody(&r, &tmp)
			l.markCalls(x.calls[r.calls.lo:])
			ld := decoder{data: d.data, pos: start, pool: d.pool}
			ld.markLocals(l)
		}
	}
	if empty {
		return true, nil
	}
	r.calls.hi, r.intents.hi = int32(len(x.calls)), int32(len(x.intents))
	x.recs = append(x.recs, r)
	return false, nil
}

// The skim's readers mirror the eager ones (u64, byte, count, refIdx)
// check for check but report only whether the checks passed, so the
// byte, pool-ref and count readers stay small enough to inline into the
// skim loops. The body skim reads through them alone: a rejection is
// phrased by the eager core, which lazyBody re-runs over the span.

// uvarint reads a uvarint, accepting exactly what binary.Uvarint accepts.
// The one- and two-byte encodings (values below 16384: the pool indexes
// and counts of all but the largest containers) are decoded here;
// anything else, a truncation included, by binary.Uvarint itself.
func (d *decoder) uvarint() (uint64, bool) {
	data, p := d.data, d.pos
	if p < len(data) {
		b0 := data[p]
		if b0 < 0x80 {
			d.pos = p + 1
			return uint64(b0), true
		}
		if p+1 < len(data) {
			if b1 := data[p+1]; b1 < 0x80 {
				d.pos = p + 2
				return uint64(b0&0x7f) | uint64(b1)<<7, true
			}
		}
	}
	v, n := binary.Uvarint(data[p:])
	if n <= 0 {
		return 0, false
	}
	d.pos = p + n
	return v, true
}

// skimByte is byte's check.
func (d *decoder) skimByte() (byte, bool) {
	if p := d.pos; p < len(d.data) {
		d.pos = p + 1
		return d.data[p], true
	}
	return 0, false
}

// skimCount is count's check.
func (d *decoder) skimCount() (int, bool) {
	v, ok := d.uvarint()
	return int(v), ok && v <= uint64(len(d.data))
}

// skimRef is refIdx's check.
func (d *decoder) skimRef() (int32, bool) {
	v, ok := d.uvarint()
	return int32(v), ok && v < uint64(len(d.pool))
}

// skimBody mirrors decoder.body over the same bytes with the same checks
// in the same order, but keeps only the record's calls and intents, and
// its local types in the build's scratch. empty reports whether the
// section holds zero statements (the empty-body normalization case); ok
// whether every check passed. On a decoder without a lazy build it keeps
// nothing and instead adds the section's counts to n (see bodyCounts).
func (d *decoder) skimBody(n *bodyCounts) (empty, ok bool) {
	b := d.lazy
	nl, ok := d.skimCount()
	if !ok {
		return false, false
	}
	if b != nil {
		b.locals = b.locals[:0]
	} else {
		n.locals += nl
	}
	for i := 0; i < nl; i++ {
		if _, ok := d.skimRef(); !ok { // name
			return false, false
		}
		t, ok := d.skimRef()
		if !ok {
			return false, false
		}
		if b != nil {
			b.locals = append(b.locals, t)
		}
	}
	ns, ok := d.skimCount()
	if !ok {
		return false, false
	}
	for i := 0; i < ns; i++ {
		if b == nil && d.pos < len(d.data) && d.data[d.pos] < byte(len(n.ops)) {
			n.ops[d.data[d.pos]]++
		}
		if !d.skimStmt(b != nil, ns) {
			return false, false
		}
	}
	nt, ok := d.skimCount()
	if !ok {
		return false, false
	}
	if b == nil {
		n.stmts += ns
		n.traps += nt
	}
	for i := 0; i < nt; i++ {
		var r [3]uint64 // begin, end, handler
		for j := range r {
			if r[j], ok = d.uvarint(); !ok {
				return false, false
			}
		}
		if _, ok := d.skimRef(); !ok { // exception
			return false, false
		}
		// checkTrap's checks.
		if ns > 0 && (r[0] >= r[1] || r[1] > uint64(ns) || r[2] >= uint64(ns)) {
			return false, false
		}
	}
	return ns == 0, true
}

// skimStmt skims one statement of a body of n statements; top is
// skimValue's, for the statement's own call.
func (d *decoder) skimStmt(top bool, n int) bool {
	op, ok := d.skimByte()
	if !ok {
		return false
	}
	switch op {
	case opAssign:
		// The core rejects a target that is not an lvalue before it reads
		// the right-hand side.
		lhs, _, ok := d.skimValue(false)
		if !ok || lhs != tagLocal && lhs != tagFieldRef {
			return false
		}
		_, _, ok = d.skimValue(top)
		return ok
	case opInvoke:
		tag, _, ok := d.skimValue(top)
		return ok && tag == tagInvoke
	case opIf:
		if _, _, ok := d.skimValue(false); !ok {
			return false
		}
		t, ok := d.uvarint()
		return ok && t < uint64(n) // checkBranch's check
	case opGoto:
		t, ok := d.uvarint()
		return ok && t < uint64(n)
	case opReturn, opThrow:
		_, _, ok := d.skimValue(false)
		return ok
	case opReturnVoid, opNop:
		return true
	}
	return false // unknown opcode
}

// skimValue parses one value without materializing it, returning the
// value's tag and, for string constants, the pool index. When top is set
// and the value is an invoke, its callee id joins the record's calls (and
// a lone string-constant setClassName argument its intents); the capture
// applies only at the outermost level, matching jimple.InvokeOf — nested
// invokes are not statement-level calls.
func (d *decoder) skimValue(top bool) (tag byte, str int32, ok bool) {
	if tag, ok = d.skimByte(); !ok {
		return
	}
	switch tag {
	case tagLocal, tagThisRef, tagNew:
		_, ok = d.skimRef()
		return
	case tagIntConst:
		// A varint spans exactly the bytes of its uvarint.
		_, ok = d.uvarint()
		return
	case tagStrConst:
		str, ok = d.skimRef()
		return
	case tagNull, tagCaughtEx:
		return
	case tagParamRef:
		if _, ok = d.uvarint(); ok {
			_, ok = d.skimRef()
		}
		return
	case tagFieldRef:
		for i := 0; i < 3 && ok; i++ { // base, class, field
			_, ok = d.skimRef()
		}
		return
	case tagInvoke:
		return tag, 0, d.skimInvoke(top)
	case tagBin:
		var op byte
		if op, ok = d.skimByte(); !ok || op > byte(jimple.OpXor) {
			return tag, 0, false
		}
		if _, _, ok = d.skimValue(false); ok {
			_, _, ok = d.skimValue(false)
		}
		return
	case tagNeg:
		_, _, ok = d.skimValue(false)
		return
	case tagCast, tagInstanceOf:
		if _, ok = d.skimRef(); ok {
			_, _, ok = d.skimValue(false)
		}
		return
	}
	return tag, 0, false // unknown value tag
}

// skimInvoke is skimValue for an invoke, its tag read.
func (d *decoder) skimInvoke(top bool) bool {
	kind, ok := d.skimByte()
	if !ok || kind > byte(jimple.InvokeStatic) {
		return false
	}
	if _, ok := d.skimRef(); !ok { // base
		return false
	}
	sigAt := d.pos
	class, name, ok := d.sigOK()
	if !ok {
		return false
	}
	na, ok := d.skimCount()
	if !ok {
		return false
	}
	var arg0Tag byte
	var arg0Str int32
	for i := 0; i < na; i++ {
		t, s, ok := d.skimValue(false)
		if !ok {
			return false
		}
		if i == 0 {
			arg0Tag, arg0Str = t, s
		}
	}
	if top {
		x := d.lazy.l.idx
		x.calls = append(x.calls, Call{Name: d.nameOf(name), class: class, at: int32(sigAt)})
		if na == 1 && arg0Tag == tagStrConst && d.pool[name] == "setClassName" {
			x.intents = append(x.intents, d.pool[arg0Str])
		}
	}
	return true
}

// sigOK is sig's checks, building nothing: it consumes an encoded
// signature and returns the pool ids of its class and method name.
func (d *decoder) sigOK() (class, name int32, ok bool) {
	if class, ok = d.skimRef(); !ok {
		return
	}
	if name, ok = d.skimRef(); !ok {
		return
	}
	np, ok := d.skimCount()
	for i := 0; i < np && ok; i++ {
		_, ok = d.skimRef()
	}
	if ok {
		_, ok = d.skimRef() // ret
	}
	return
}

// skimSig is sigOK for a method header, whose error reaches the caller:
// a rejected signature is re-read by sig, which phrases the error.
func (d *decoder) skimSig() (class, name int32, err error) {
	at := d.pos
	if class, name, ok := d.sigOK(); ok {
		return class, name, nil
	}
	d.pos = at
	if _, err = d.sig(); err == nil {
		err = fmt.Errorf("signature at offset %d: skim and decoder disagree", at)
	}
	return 0, 0, err
}

package dex

import (
	"sort"

	"repro/internal/jimple"
)

// Index is the skim of a program's body-bearing methods: everything the
// demand closure consults, with no method body retained. It is built
// either by the lazy decoder's skim (DecodeLazy) or by walking an eagerly
// decoded program (IndexOf), and the two builds of the same bytes agree.
//
// Everything is stored flat and by integer id, so building it costs a
// handful of allocations however many methods the app has:
//
//   - records: one MethodRef per body-bearing method, grouped by class;
//   - calls: every record's top-level call sites, in statement order, in
//     one shared slab. A call holds pool ids — its callee's name id and
//     class — and where its signature is encoded; the signature itself is
//     built only when asked for (Sig);
//   - name ids: one per distinct method name, a canonical string-pool id
//     shared by a record's own name and its calls' callee names;
//   - the caller index: name id → the records calling a method of that
//     name (each record once), the backward rule of the closure as a
//     lookup; and the declarer index: name id → the records declaring a
//     method of that name, the forward rule's lookup.
//
// Method keys are rendered only on demand (Key), so an app whose closure
// is small pays for few strings. Index is not safe for concurrent use:
// Key caches its renderings.
type Index struct {
	recs    []MethodRef
	keys    []string         // Key's renderings, allocated on first use
	classes []classSpan      // bodied classes, sorted by name
	calls   []Call           // MethodRef.calls spans into it
	intents []string         // MethodRef.intents spans into it
	nameIDs map[string]int32 // method name → name id, dense from 0
	callers csr              // name id → calling records
	decls   csr              // name id → declaring records
	// A skimmed call's signature is decoded from src on demand; a call
	// taken from a decoded body keeps its signature in sigs.
	src  []byte
	pool []string
	sigs []jimple.Sig
}

// MethodRef is the skim record of one body-bearing method.
type MethodRef struct {
	// Method is the method the record describes: a bodiless skeleton
	// until its class is materialized (lazy), or the decoded method
	// (IndexOf).
	Method *jimple.Method
	// Name is the name id of Method.Sig.Name.
	Name int32
	// Class is the slot of the record's class among the index's bodied
	// classes (ClassName, ClassRecords).
	Class   int32
	start   int32 // lazy: offset of the encoded body section
	calls   span
	intents span
	locals  span // lazy: local-type pool ids of the body
}

// Call is one top-level call site.
type Call struct {
	// Name is the name id of the callee's method name.
	Name int32
	// class is the pool id of the callee's class, or -1 when the call
	// came from a decoded body; at is then an index into Index.sigs, else
	// the offset of the encoded signature.
	class, at int32
}

type span struct{ lo, hi int32 }

// classSpan is one bodied class and the contiguous run of its records.
type classSpan struct {
	name   string
	lo, hi int32
}

// csr is a compressed adjacency list: the ids of key k are
// ids[off[k]:off[k+1]].
type csr struct{ off, ids []int32 }

func (c *csr) of(k int32) []int32 { return c.ids[c.off[k]:c.off[k+1]] }

// IndexOf builds the index of an eagerly decoded program from its
// bodies: the reference the lazy skim must agree with, and the closure
// input of a scan over an in-memory program.
func IndexOf(p *jimple.Program) *Index {
	classes := p.Classes()
	n := 0
	for _, c := range classes {
		for _, m := range c.Methods {
			if m.HasBody() {
				n++
			}
		}
	}
	x := &Index{recs: make([]MethodRef, 0, n), nameIDs: make(map[string]int32)}
	for _, c := range classes {
		lo := len(x.recs)
		for _, m := range c.Methods {
			if m.HasBody() {
				r := MethodRef{Method: m, Name: x.nameID(m.Sig.Name), Class: int32(len(x.classes))}
				x.addBody(&r, m)
				x.recs = append(x.recs, r)
			}
		}
		x.endClass(c.Name, lo)
	}
	x.finish()
	return x
}

// nameID returns the name id of a method name, assigning the next one on
// first sight.
func (x *Index) nameID(name string) int32 {
	if id, ok := x.nameIDs[name]; ok {
		return id
	}
	id := int32(len(x.nameIDs))
	x.nameIDs[name] = id
	return id
}

// addBody fills r's calls and intents from a decoded body — the
// jimple.InvokeOf shape: an InvokeStmt or an AssignStmt whose RHS is an
// invoke. Nested invokes cannot be expressed at statement level, so this
// is exactly the call set the call graph builds from. Intents are the
// string-constant class names passed to one-argument setClassName calls:
// a superset of the explicit-intent targets callgraph resolves (which
// also requires the receiver local to alias the launched Intent).
func (x *Index) addBody(r *MethodRef, m *jimple.Method) {
	r.calls.lo, r.intents.lo = int32(len(x.calls)), int32(len(x.intents))
	for _, s := range m.Body {
		inv, ok := jimple.InvokeOf(s)
		if !ok {
			continue
		}
		x.calls = append(x.calls, Call{Name: x.nameID(inv.Callee.Name), class: -1, at: int32(len(x.sigs))})
		x.sigs = append(x.sigs, inv.Callee)
		if inv.Callee.Name == "setClassName" && len(inv.Args) == 1 {
			if sc, isStr := inv.Args[0].(jimple.StrConst); isStr {
				x.intents = append(x.intents, sc.V)
			}
		}
	}
	r.calls.hi, r.intents.hi = int32(len(x.calls)), int32(len(x.intents))
}

// endClass closes the class whose records start at lo, if it has any.
func (x *Index) endClass(name string, lo int) {
	if len(x.recs) > lo {
		x.classes = append(x.classes, classSpan{name: name, lo: int32(lo), hi: int32(len(x.recs))})
	}
}

// finish sorts the bodied classes by name (a container lists them in any
// order; the encoder's is already sorted) and builds the caller and
// declarer indices.
func (x *Index) finish() {
	if !sort.SliceIsSorted(x.classes, func(i, j int) bool { return x.classes[i].name < x.classes[j].name }) {
		sort.Slice(x.classes, func(i, j int) bool { return x.classes[i].name < x.classes[j].name })
		for slot, c := range x.classes {
			for i := c.lo; i < c.hi; i++ {
				x.recs[i].Class = int32(slot)
			}
		}
	}
	n := len(x.nameIDs)
	// One counting pass for both indices, then prefix sums and a fill
	// pass. last[k] is the last record (index+1) filed under name k, so a
	// record calling one name twice is filed once; fill[k] is name k's
	// next free slot. The bookkeeping shares one allocation, the two id
	// lists another.
	scratch := make([]int32, 5*n+2)
	x.callers.off, x.decls.off = scratch[:n+1:n+1], scratch[n+1:2*n+2:2*n+2]
	last, callerFill, declFill := scratch[2*n+2:3*n+2], scratch[3*n+2:4*n+2], scratch[4*n+2:5*n+2]
	for i := range x.recs {
		r := &x.recs[i]
		x.decls.off[r.Name+1]++
		for _, c := range x.calls[r.calls.lo:r.calls.hi] {
			if last[c.Name] != int32(i+1) {
				last[c.Name] = int32(i + 1)
				x.callers.off[c.Name+1]++
			}
		}
	}
	for k := 0; k < n; k++ {
		x.callers.off[k+1] += x.callers.off[k]
		x.decls.off[k+1] += x.decls.off[k]
	}
	ids := make([]int32, x.callers.off[n]+x.decls.off[n])
	x.callers.ids, x.decls.ids = ids[:x.callers.off[n]], ids[x.callers.off[n]:]
	clear(last)
	copy(callerFill, x.callers.off[:n])
	copy(declFill, x.decls.off[:n])
	for i := range x.recs {
		r := &x.recs[i]
		x.decls.ids[declFill[r.Name]] = int32(i)
		declFill[r.Name]++
		for _, c := range x.calls[r.calls.lo:r.calls.hi] {
			if last[c.Name] != int32(i+1) {
				last[c.Name] = int32(i + 1)
				x.callers.ids[callerFill[c.Name]] = int32(i)
				callerFill[c.Name]++
			}
		}
	}
}

// Records returns the skim records, each class's a contiguous run
// (ClassRecords) in declaration order; the runs follow the container's
// class order. The slice is shared; treat it as read-only.
func (x *Index) Records() []MethodRef { return x.recs }

// Key returns record i's method key (Sig.Key()), rendering it on first
// use.
func (x *Index) Key(i int32) string {
	if x.keys == nil {
		x.keys = make([]string, len(x.recs))
	}
	if x.keys[i] == "" {
		x.keys[i] = x.recs[i].Method.Sig.Key()
	}
	return x.keys[i]
}

// Calls returns record i's top-level calls, in statement order.
func (x *Index) Calls(i int32) []Call {
	s := x.recs[i].calls
	return x.calls[s.lo:s.hi]
}

// Sig returns the callee signature of a call, decoding it from the
// container on each use for a skimmed call.
func (x *Index) Sig(c Call) jimple.Sig {
	if c.class < 0 {
		return x.sigs[c.at]
	}
	// The skim validated the span, so the decode cannot fail.
	d := decoder{data: x.src, pos: int(c.at), pool: x.pool}
	sig, _ := d.sig()
	return sig
}

// Intents returns the setClassName string constants of record i.
func (x *Index) Intents(i int32) []string {
	s := x.recs[i].intents
	return x.intents[s.lo:s.hi]
}

// NameID returns the name id of a method name, if any record declares or
// calls a method of that name.
func (x *Index) NameID(name string) (int32, bool) {
	id, ok := x.nameIDs[name]
	return id, ok
}

// NumNames returns the number of name ids.
func (x *Index) NumNames() int { return len(x.nameIDs) }

// Callers returns the records with a top-level call to a method named by
// name id k, ascending, each once.
func (x *Index) Callers(k int32) []int32 { return x.callers.of(k) }

// Declarers returns the records whose own method is named by name id k,
// ascending.
func (x *Index) Declarers(k int32) []int32 { return x.decls.of(k) }

// NumClasses returns how many classes have at least one body-bearing
// method; their slots run from 0 in class-name order.
func (x *Index) NumClasses() int { return len(x.classes) }

// ClassName returns the name of the class in slot.
func (x *Index) ClassName(slot int32) string { return x.classes[slot].name }

// ClassRecords returns the record range [lo, hi) of the class in slot, in
// declaration order.
func (x *Index) ClassRecords(slot int32) (lo, hi int32) {
	c := x.classes[slot]
	return c.lo, c.hi
}

// ClassSlot returns the slot of a bodied class by name.
func (x *Index) ClassSlot(name string) (int32, bool) {
	i := sort.Search(len(x.classes), func(i int) bool { return x.classes[i].name >= name })
	if i < len(x.classes) && x.classes[i].name == name {
		return int32(i), true
	}
	return 0, false
}

// TargetSiteSearch returns the sorted keys of the methods with a
// top-level call to one of the wanted signatures. It is a lookup in the
// caller index: only the callers of the wanted method names are
// consulted, and an app that never names a wanted method answers from
// the name table alone.
func (x *Index) TargetSiteSearch(wanted []jimple.Sig) []string {
	keys := make(map[string]bool, len(wanted))
	var names []int32
	for _, w := range wanted {
		if id, ok := x.nameIDs[w.Name]; ok {
			keys[w.Key()] = true
			names = append(names, id)
		}
	}
	hit := make(map[int32]bool)
	for _, k := range names {
		for _, i := range x.Callers(k) {
			if hit[i] {
				continue
			}
			for _, c := range x.Calls(i) {
				if c.Name == k && keys[x.Sig(c).Key()] {
					hit[i] = true
					break
				}
			}
		}
	}
	if len(hit) == 0 {
		return nil
	}
	out := make([]string, 0, len(hit))
	for i := range hit {
		out = append(out, x.Key(i))
	}
	sort.Strings(out)
	return out
}

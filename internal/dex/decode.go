package dex

import (
	"encoding/binary"
	"fmt"

	"repro/internal/arena"
	"repro/internal/jimple"
)

// Decode parses bytes produced by Encode back into a program. It treats
// the input as untrusted: malformed data yields an error, never a panic.
func Decode(data []byte) (*jimple.Program, error) {
	d := &decoder{data: data}
	prog, err := d.run()
	if err != nil {
		return nil, fmt.Errorf("dex: %w (at offset %d)", err, d.pos)
	}
	return prog, nil
}

type decoder struct {
	data []byte
	pos  int
	pool []string
	// The program's headers are carved from slabs rather than allocated
	// one by one. strs backs signatures' Params and classes' Interfaces.
	classes    arena.Slab[jimple.Class]
	methods    arena.Slab[jimple.Method]
	methodPtrs arena.Slab[*jimple.Method]
	fields     arena.Slab[jimple.Field]
	fieldPtrs  arena.Slab[*jimple.Field]
	strs       arena.Slab[string]
	// The bodies' slices and nodes, once the decoder reads a body.
	*bodySlabs
	// lazy, when non-nil, switches classes to the skim path: the same
	// bytes are parsed with the same validation, but no class, field,
	// method or statement objects are built — only the headers, offsets
	// and the skim records are kept.
	lazy *lazyBuild
	// ct holds the class headers read so far, and poolType memoizes the
	// type id of a pool id (id+1; 0 = not yet interned) while they are
	// read.
	ct       *classTable
	poolType []int32
}

// bodySlabs are the slabs a decoder carves bodies from: their locals,
// statements, traps and call arguments, and the statement nodes by type.
// Each slice is capped at its length (arena.Slab.Make), so appending to
// one never writes into the next.
type bodySlabs struct {
	localDecls arena.Slab[jimple.LocalDecl]
	stmts      arena.Slab[jimple.Stmt]
	traps      arena.Slab[jimple.Trap]
	values     arena.Slab[jimple.Value]
	assigns    arena.Slab[jimple.AssignStmt]
	invokes    arena.Slab[jimple.InvokeStmt]
	ifs        arena.Slab[jimple.IfStmt]
	gotos      arena.Slab[jimple.GotoStmt]
	returns    arena.Slab[jimple.ReturnStmt]
	throws     arena.Slab[jimple.ThrowStmt]
	// boxes holds the boxed single-reference values (locals, this refs,
	// string constants, allocations) of the bodies decoded since the last
	// resetBoxes, so each distinct one is boxed once per batch of bodies
	// rather than once per use.
	boxes []box
	// args is the stack invoke arguments are decoded onto.
	args []jimple.Value
}

// box is one boxed value: the value's tag and its pool reference.
type box struct {
	tag byte
	ref int32
	v   jimple.Value
}

// maxBoxes bounds the box list, which is searched linearly: a batch with
// more distinct values boxes the rest per use. Over the corpus a scan's
// batch never fills it; on a large app's MaterializeAll, 16 entries
// leave about half the repeats unshared and 256 share none more than 64.
const maxBoxes = 64

// boxed returns the value of tag with pool reference ref, boxed at most
// once per batch.
func (d *decoder) boxed(tag byte, ref int32) jimple.Value {
	for i := range d.boxes {
		if b := &d.boxes[i]; b.ref == ref && b.tag == tag {
			return b.v
		}
	}
	var v jimple.Value
	switch s := d.pool[ref]; tag {
	case tagLocal:
		v = jimple.Local{Name: s}
	case tagStrConst:
		v = jimple.StrConst{V: s}
	case tagThisRef:
		v = jimple.ThisRef{Type: s}
	default: // tagNew
		v = jimple.NewExpr{Type: s}
	}
	if len(d.boxes) < maxBoxes {
		d.boxes = append(d.boxes, box{tag: tag, ref: ref, v: v})
	}
	return v
}

// resetBoxes starts a batch: the eager decoder resets the box list for
// each class, Materialize for each call.
func (d *decoder) resetBoxes() {
	if d.bodySlabs != nil {
		clear(d.boxes)
		d.boxes = d.boxes[:0]
	}
}

// takeUpTo returns an empty slice from s with room for n items of at
// least minBytes encoded bytes each, bounded by hint, or nil when n is
// zero; appending past the room reallocates.
func takeUpTo[T any](d *decoder, s *arena.Slab[T], n, minBytes int) []T {
	if n == 0 {
		return nil
	}
	return s.Make(d.hint(n, minBytes))[:0]
}

func (d *decoder) run() (*jimple.Program, error) {
	if len(d.data) < 4 || [4]byte(d.data[:4]) != Magic {
		return nil, fmt.Errorf("bad magic")
	}
	d.pos = 4
	ver, err := d.u64()
	if err != nil {
		return nil, err
	}
	if ver != Version {
		return nil, fmt.Errorf("unsupported version %d", ver)
	}
	nstr, err := d.u64()
	if err != nil {
		return nil, err
	}
	if nstr > uint64(len(d.data)) {
		return nil, fmt.Errorf("string pool count %d exceeds input size", nstr)
	}
	// Pool strings are slices of one string conversion of the pool's
	// bytes rather than one allocation each: a first pass finds where the
	// pool ends.
	if d.lazy != nil {
		d.pool = reuse(d.lazy.reuse.pool, int(nstr))
	} else {
		d.pool = make([]string, nstr)
	}
	start := d.pos
	for range d.pool {
		if _, err := d.skipStr(); err != nil {
			return nil, err
		}
	}
	text := string(d.data[start:d.pos])
	d.pos = start
	for i := range d.pool {
		n, _ := d.skipStr() // the first pass checked it
		d.pool[i] = text[d.pos-n-start : d.pos-start]
	}
	nclass, err := d.u64()
	if err != nil {
		return nil, err
	}
	if nclass > uint64(len(d.data)) {
		return nil, fmt.Errorf("class count %d exceeds input size", nclass)
	}
	// A class is at least name, superclass, flags and three counts: six
	// bytes.
	n := d.hint(int(nclass), 6)
	var prog *jimple.Program
	var colour []byte
	var stack []cycleFrame
	if d.lazy != nil {
		d.lazy.begin(d, n)
		colour, stack = d.lazy.colour, d.lazy.stack
	} else {
		prog = jimple.NewProgram()
		d.ct = new(classTable)
		d.ct.begin(n, &spare{})
		d.poolType = make([]int32, len(d.pool))
	}
	for i := uint64(0); i < nclass; i++ {
		if d.lazy != nil {
			if err := d.skimClass(); err != nil {
				return nil, err
			}
			continue
		}
		c, err := d.class()
		if err != nil {
			return nil, err
		}
		prog.AddClass(c)
	}
	if d.pos != len(d.data) {
		return nil, fmt.Errorf("%d trailing bytes", len(d.data)-d.pos)
	}
	colour, stack, err = d.ct.checkCycles(d.pool, colour, stack)
	if d.lazy != nil {
		d.lazy.colour, d.lazy.stack = colour, stack
	}
	if err != nil {
		return nil, err
	}
	return prog, nil
}

func (d *decoder) u64() (uint64, error) {
	v, n := binary.Uvarint(d.data[d.pos:])
	if n <= 0 {
		return 0, fmt.Errorf("truncated uvarint")
	}
	d.pos += n
	return v, nil
}

func (d *decoder) i64() (int64, error) {
	v, n := binary.Varint(d.data[d.pos:])
	if n <= 0 {
		return 0, fmt.Errorf("truncated varint")
	}
	d.pos += n
	return v, nil
}

func (d *decoder) count(what string) (int, error) {
	v, err := d.u64()
	if err != nil {
		return 0, err
	}
	if v > uint64(len(d.data)) {
		return 0, fmt.Errorf("%s count %d exceeds input size", what, v)
	}
	return int(v), nil
}

func (d *decoder) byte() (byte, error) {
	if d.pos >= len(d.data) {
		return 0, fmt.Errorf("truncated byte")
	}
	b := d.data[d.pos]
	d.pos++
	return b, nil
}

// skipStr steps over a length-prefixed string, returning its length.
func (d *decoder) skipStr() (int, error) {
	n, err := d.u64()
	if err != nil {
		return 0, err
	}
	if uint64(d.pos)+n > uint64(len(d.data)) {
		return 0, fmt.Errorf("truncated string of length %d", n)
	}
	d.pos += int(n)
	return int(n), nil
}

// refIdx reads a string-pool index, range-checked.
func (d *decoder) refIdx() (int32, error) {
	idx, err := d.u64()
	if err != nil {
		return 0, err
	}
	if idx >= uint64(len(d.pool)) {
		return 0, fmt.Errorf("string index %d out of pool range %d", idx, len(d.pool))
	}
	return int32(idx), nil
}

func (d *decoder) ref() (string, error) {
	idx, err := d.refIdx()
	if err != nil {
		return "", err
	}
	return d.pool[idx], nil
}

// hint bounds a presize for n items of at least minBytes encoded bytes
// each by what the rest of the input could hold, so a forged count
// cannot force a huge allocation before the decode fails.
func (d *decoder) hint(n, minBytes int) int {
	return min(n, (len(d.data)-d.pos)/minBytes)
}

func (d *decoder) class() (*jimple.Class, error) {
	d.resetBoxes()
	slot, err := d.classHeader()
	if err != nil {
		return nil, err
	}
	c := d.classes.New()
	d.setHeader(c, slot)
	if err := d.fieldSection(c); err != nil {
		return nil, err
	}
	nm, err := d.count("method")
	if err != nil {
		return nil, err
	}
	var methods []jimple.Method
	if nm > 0 {
		// A method is at least class, name, param count, return type and
		// flags: five bytes.
		methods = d.methods.Make(d.hint(nm, 5))
		c.Methods = d.methodPtrs.Make(len(methods))[:0]
	}
	for i := 0; i < nm; i++ {
		var m *jimple.Method
		if i < len(methods) {
			m = &methods[i]
		} else {
			m = new(jimple.Method)
		}
		if err := d.method(m, c.Name); err != nil {
			return nil, err
		}
		c.Methods = append(c.Methods, m)
	}
	return c, nil
}

// fieldSection decodes a class's field count and fields into c.
func (d *decoder) fieldSection(c *jimple.Class) error {
	nf, err := d.count("field")
	if err != nil {
		return err
	}
	var fields []jimple.Field
	if nf > 0 {
		// A field is at least name, type and flags: three bytes.
		fields = d.fields.Make(d.hint(nf, 3))
		c.Fields = d.fieldPtrs.Make(len(fields))[:0]
	}
	for i := 0; i < nf; i++ {
		var f *jimple.Field
		if i < len(fields) {
			f = &fields[i]
		} else {
			f = new(jimple.Field)
		}
		if f.Name, err = d.ref(); err != nil {
			return err
		}
		if f.Type, err = d.ref(); err != nil {
			return err
		}
		ff, err := d.byte()
		if err != nil {
			return err
		}
		f.Static = ff&fflagStatic != 0
		c.Fields = append(c.Fields, f)
	}
	return nil
}

func (d *decoder) sig() (jimple.Sig, error) {
	var s jimple.Sig
	var err error
	if s.Class, err = d.ref(); err != nil {
		return s, err
	}
	if s.Name, err = d.ref(); err != nil {
		return s, err
	}
	np, err := d.count("param")
	if err != nil {
		return s, err
	}
	s.Params = takeUpTo(d, &d.strs, np, 1)
	for i := 0; i < np; i++ {
		p, err := d.ref()
		if err != nil {
			return s, err
		}
		s.Params = append(s.Params, p)
	}
	if s.Ret, err = d.ref(); err != nil {
		return s, err
	}
	return s, nil
}

// method decodes one method of class owner, header and body, into m.
func (d *decoder) method(m *jimple.Method, owner string) error {
	bodied, err := d.methodHeader(m, owner)
	if err != nil || !bodied {
		return err
	}
	return d.body(m)
}

// methodHeader decodes a method's signature and flags into m, leaving d
// at its body section; bodied reports whether one follows. A method
// without one is abstract. owner is the declaring class, which the
// signature must name.
func (d *decoder) methodHeader(m *jimple.Method, owner string) (bodied bool, err error) {
	if m.Sig, err = d.sig(); err != nil {
		return false, err
	}
	if m.Sig.Class != owner {
		return false, errForeignMethod(m.Sig, owner)
	}
	flags, err := d.byte()
	if err != nil {
		return false, err
	}
	m.Static = flags&mflagStatic != 0
	m.Abstract = flags&mflagAbstract != 0
	if flags&mflagHasBody == 0 {
		m.Abstract = true
		return false, nil
	}
	if m.Abstract {
		return false, errAbstractBody(m.Sig)
	}
	return true, nil
}

// errForeignMethod is the error for a method whose signature names a class
// other than the one declaring it. Real DEX rules it out (a class's
// encoded methods reference method ids of that class), and accepting it
// gave two methods one key, after which map order decided the warnings.
func errForeignMethod(sig jimple.Sig, owner string) error {
	return fmt.Errorf("method %s: declared in class %s", sig.Key(), owner)
}

// errAbstractBody is the error for a method flagged both abstract and
// bodied. The encoder never emits both flags: such a method is malformed
// input, not a representable program (fuzz-found canonicality break).
func errAbstractBody(sig jimple.Sig) error {
	return fmt.Errorf("method %s: abstract flag with body", sig.Key())
}

// body decodes the encoded body section — locals, statements, traps, and
// the empty-body normalization — into m. It is the single decoder core
// shared by the eager path (method) and the lazy path (lazy.go), which
// skims it once for call records and re-runs it on demand to materialize
// a class; sharing it is what makes the two paths bit-identical. The
// headers are shared the same way: the lazy path fills a class's members
// with fieldSection and methodHeader.
func (d *decoder) body(m *jimple.Method) error {
	if d.bodySlabs == nil {
		d.bodySlabs = new(bodySlabs)
	}
	nl, err := d.count("local")
	if err != nil {
		return err
	}
	// Each slice is presized from its encoded count, bounded by what the
	// rest of the input could hold: a local is at least two bytes (name
	// and type), a statement one (its opcode), a trap four.
	m.Locals = takeUpTo(d, &d.localDecls, nl, 2)
	for i := 0; i < nl; i++ {
		var l jimple.LocalDecl
		if l.Name, err = d.ref(); err != nil {
			return err
		}
		if l.Type, err = d.ref(); err != nil {
			return err
		}
		m.Locals = append(m.Locals, l)
	}
	ns, err := d.count("statement")
	if err != nil {
		return err
	}
	m.Body = takeUpTo(d, &d.stmts, ns, 1)
	for i := 0; i < ns; i++ {
		s, err := d.stmt(i, ns)
		if err != nil {
			return err
		}
		m.Body = append(m.Body, s)
	}
	nt, err := d.count("trap")
	if err != nil {
		return err
	}
	m.Traps = takeUpTo(d, &d.traps, nt, 4)
	for i := 0; i < nt; i++ {
		var t jimple.Trap
		b, err := d.u64()
		if err != nil {
			return err
		}
		e, err := d.u64()
		if err != nil {
			return err
		}
		h, err := d.u64()
		if err != nil {
			return err
		}
		exc, err := d.ref()
		if err != nil {
			return err
		}
		// The traps of a body with no statement go with it (below).
		if ns > 0 {
			if err := checkTrap(i, b, e, h, ns); err != nil {
				return err
			}
		}
		t.Begin, t.End, t.Handler, t.Exception = int(b), int(e), int(h), exc
		m.Traps = append(m.Traps, t)
	}
	if len(m.Body) == 0 {
		// A has-body method with zero statements decodes to the same
		// program state as an abstract stub; normalize it like the
		// jimple parser does so re-encoding is canonical.
		m.Abstract = true
		m.Locals = nil
		m.Body = nil
		m.Traps = nil
	}
	return nil
}

// checkTrap rejects trap i of a body of n statements unless it covers a
// non-empty range of them and its handler is one of them: the checks
// jimple's Validate makes, so no analysis indexes a body by a bad trap.
func checkTrap(i int, begin, end, handler uint64, n int) error {
	if begin >= end || end > uint64(n) {
		return fmt.Errorf("trap %d has bad range [%d,%d) of %d", i, begin, end, n)
	}
	if handler >= uint64(n) {
		return fmt.Errorf("trap %d has bad handler %d", i, handler)
	}
	return nil
}

// checkBranch rejects a branch of statement i to target t unless t is one
// of the body's n statements, as jimple's Validate does.
func checkBranch(i int, t uint64, n int) error {
	if t >= uint64(n) {
		return fmt.Errorf("statement %d branches out of range (%d of %d)", i, t, n)
	}
	return nil
}

// stmt decodes statement i of a body of n statements.
func (d *decoder) stmt(i, n int) (jimple.Stmt, error) {
	op, err := d.byte()
	if err != nil {
		return nil, err
	}
	switch op {
	case opAssign:
		lhs, err := d.value()
		if err != nil {
			return nil, err
		}
		lv, ok := lhs.(jimple.LValue)
		if !ok {
			return nil, fmt.Errorf("assign target is not an lvalue (%T)", lhs)
		}
		rhs, err := d.value()
		if err != nil {
			return nil, err
		}
		st := d.assigns.New()
		st.LHS, st.RHS = lv, rhs
		return st, nil
	case opInvoke:
		v, err := d.value()
		if err != nil {
			return nil, err
		}
		inv, ok := v.(jimple.InvokeExpr)
		if !ok {
			return nil, fmt.Errorf("invoke statement holds %T", v)
		}
		st := d.invokes.New()
		st.Call = inv
		return st, nil
	case opIf:
		cond, err := d.value()
		if err != nil {
			return nil, err
		}
		t, err := d.u64()
		if err != nil {
			return nil, err
		}
		if err := checkBranch(i, t, n); err != nil {
			return nil, err
		}
		st := d.ifs.New()
		st.Cond, st.Target = cond, int(t)
		return st, nil
	case opGoto:
		t, err := d.u64()
		if err != nil {
			return nil, err
		}
		if err := checkBranch(i, t, n); err != nil {
			return nil, err
		}
		st := d.gotos.New()
		st.Target = int(t)
		return st, nil
	case opReturn:
		v, err := d.value()
		if err != nil {
			return nil, err
		}
		st := d.returns.New()
		st.V = v
		return st, nil
	case opReturnVoid:
		return d.returns.New(), nil
	case opThrow:
		v, err := d.value()
		if err != nil {
			return nil, err
		}
		st := d.throws.New()
		st.V = v
		return st, nil
	case opNop:
		return &jimple.NopStmt{}, nil
	}
	return nil, fmt.Errorf("unknown opcode %d", op)
}

func (d *decoder) value() (jimple.Value, error) {
	tag, err := d.byte()
	if err != nil {
		return nil, err
	}
	switch tag {
	case tagLocal, tagStrConst, tagThisRef, tagNew:
		ref, err := d.refIdx()
		if err != nil {
			return nil, err
		}
		return d.boxed(tag, ref), nil
	case tagIntConst:
		v, err := d.i64()
		if err != nil {
			return nil, err
		}
		return jimple.IntConst{V: v}, nil
	case tagNull:
		return jimple.NullConst{}, nil
	case tagParamRef:
		idx, err := d.u64()
		if err != nil {
			return nil, err
		}
		t, err := d.ref()
		if err != nil {
			return nil, err
		}
		return jimple.ParamRef{Index: int(idx), Type: t}, nil
	case tagCaughtEx:
		return jimple.CaughtExRef{}, nil
	case tagFieldRef:
		base, err := d.ref()
		if err != nil {
			return nil, err
		}
		cls, err := d.ref()
		if err != nil {
			return nil, err
		}
		fld, err := d.ref()
		if err != nil {
			return nil, err
		}
		return jimple.FieldRef{Base: base, Class: cls, Field: fld}, nil
	case tagInvoke:
		kind, err := d.byte()
		if err != nil {
			return nil, err
		}
		if kind > byte(jimple.InvokeStatic) {
			return nil, fmt.Errorf("bad invoke kind %d", kind)
		}
		base, err := d.ref()
		if err != nil {
			return nil, err
		}
		callee, err := d.sig()
		if err != nil {
			return nil, err
		}
		na, err := d.count("argument")
		if err != nil {
			return nil, err
		}
		// The arguments go onto the args stack, above those of the invoke
		// this one is an argument of, and are carved from the slab only
		// once decoded, at their real count: a forged count reserves
		// nothing, however deep the nesting.
		lo := len(d.args)
		for i := 0; i < na; i++ {
			a, err := d.value()
			if err != nil {
				d.args = d.args[:lo]
				return nil, err
			}
			d.args = append(d.args, a)
		}
		var args []jimple.Value
		if na > 0 {
			args = d.values.Make(na)
			copy(args, d.args[lo:])
			d.args = d.args[:lo]
		}
		return jimple.InvokeExpr{Kind: jimple.InvokeKind(kind), Base: base, Callee: callee, Args: args}, nil
	case tagBin:
		op, err := d.byte()
		if err != nil {
			return nil, err
		}
		if op > byte(jimple.OpXor) {
			return nil, fmt.Errorf("bad binary op %d", op)
		}
		l, err := d.value()
		if err != nil {
			return nil, err
		}
		r, err := d.value()
		if err != nil {
			return nil, err
		}
		return jimple.BinExpr{Op: jimple.BinOp(op), L: l, R: r}, nil
	case tagNeg:
		v, err := d.value()
		if err != nil {
			return nil, err
		}
		return jimple.NegExpr{V: v}, nil
	case tagCast:
		t, err := d.ref()
		if err != nil {
			return nil, err
		}
		v, err := d.value()
		if err != nil {
			return nil, err
		}
		return jimple.CastExpr{Type: t, V: v}, nil
	case tagInstanceOf:
		t, err := d.ref()
		if err != nil {
			return nil, err
		}
		v, err := d.value()
		if err != nil {
			return nil, err
		}
		return jimple.InstanceOfExpr{Type: t, V: v}, nil
	}
	return nil, fmt.Errorf("unknown value tag %d", tag)
}

package dex

import (
	"encoding/binary"
	"fmt"

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
	// text is data converted to a string once; pool strings are slices
	// of it rather than one allocation each.
	text string
	// params is the shared backing store of decoded signatures' Params
	// and classes' Interfaces: each gets a full slice expression of it, so
	// an append by a later owner copies instead of clobbering a neighbour.
	params []string
	// The program's headers are carved from shared chunks rather than
	// allocated one by one.
	classes    slab[jimple.Class]
	methods    slab[jimple.Method]
	methodPtrs slab[*jimple.Method]
	fields     slab[jimple.Field]
	fieldPtrs  slab[*jimple.Field]
	// lastName is the pool index of the method name sig last read.
	lastName int32
	// lazy, when non-nil, switches method bodies to the skim path: the
	// same bytes are parsed with the same validation, but no statement
	// objects are built — only the span and the skim record are kept.
	lazy *lazyBuild
}

// slab hands out slices carved from shared chunks, so decoding n headers
// costs O(log n) allocations instead of n. Chunks double from 8 up to 512
// elements; a request larger than that gets a chunk of its own. Each
// slice is capped at its length, so appending to one never writes into
// the next.
type slab[T any] struct {
	free []T
	next int
}

func (s *slab[T]) take(n int) []T {
	if n > len(s.free) {
		s.next = min(max(2*s.next, 8), 512)
		s.free = make([]T, max(n, s.next))
	}
	out := s.free[:n:n]
	s.free = s.free[n:]
	return out
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
	d.pool = make([]string, nstr)
	d.text = string(d.data)
	for i := range d.pool {
		s, err := d.str()
		if err != nil {
			return nil, err
		}
		d.pool[i] = s
	}
	nclass, err := d.u64()
	if err != nil {
		return nil, err
	}
	if nclass > uint64(len(d.data)) {
		return nil, fmt.Errorf("class count %d exceeds input size", nclass)
	}
	prog := jimple.NewProgram()
	for i := uint64(0); i < nclass; i++ {
		c, err := d.class()
		if err != nil {
			return nil, err
		}
		if d.lazy != nil && prog.Class(c.Name) != nil {
			// The later class replaces the earlier one; its skim records
			// are dropped once the container has parsed.
			d.lazy.replaced = true
		}
		prog.AddClass(c)
	}
	if d.pos != len(d.data) {
		return nil, fmt.Errorf("%d trailing bytes", len(d.data)-d.pos)
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

func (d *decoder) str() (string, error) {
	n, err := d.u64()
	if err != nil {
		return "", err
	}
	if uint64(d.pos)+n > uint64(len(d.data)) {
		return "", fmt.Errorf("truncated string of length %d", n)
	}
	s := d.text[d.pos : d.pos+int(n)]
	d.pos += int(n)
	return s, nil
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
	c := &d.classes.take(1)[0]
	var err error
	if c.Name, err = d.ref(); err != nil {
		return nil, err
	}
	if c.Super, err = d.ref(); err != nil {
		return nil, err
	}
	flags, err := d.byte()
	if err != nil {
		return nil, err
	}
	c.IsIface = flags&flagIface != 0
	c.Abstract = flags&flagAbstract != 0
	nif, err := d.count("interface")
	if err != nil {
		return nil, err
	}
	lo := len(d.params)
	for i := 0; i < nif; i++ {
		s, err := d.ref()
		if err != nil {
			return nil, err
		}
		d.params = append(d.params, s)
	}
	if nif > 0 {
		c.Interfaces = d.params[lo:len(d.params):len(d.params)]
	}
	nf, err := d.count("field")
	if err != nil {
		return nil, err
	}
	var fields []jimple.Field
	if nf > 0 {
		// A field is at least name, type and flags: three bytes.
		fields = d.fields.take(d.hint(nf, 3))
		c.Fields = d.fieldPtrs.take(len(fields))[:0]
	}
	for i := 0; i < nf; i++ {
		var f *jimple.Field
		if i < len(fields) {
			f = &fields[i]
		} else {
			f = new(jimple.Field)
		}
		if f.Name, err = d.ref(); err != nil {
			return nil, err
		}
		if f.Type, err = d.ref(); err != nil {
			return nil, err
		}
		ff, err := d.byte()
		if err != nil {
			return nil, err
		}
		f.Static = ff&fflagStatic != 0
		c.Fields = append(c.Fields, f)
	}
	nm, err := d.count("method")
	if err != nil {
		return nil, err
	}
	var methods []jimple.Method
	if nm > 0 {
		// A method is at least class, name, param count, return type and
		// flags: five bytes.
		methods = d.methods.take(d.hint(nm, 5))
		c.Methods = d.methodPtrs.take(len(methods))[:0]
	}
	if d.lazy != nil {
		d.lazy.beginClass()
	}
	for i := 0; i < nm; i++ {
		var m *jimple.Method
		if i < len(methods) {
			m = &methods[i]
		} else {
			m = new(jimple.Method)
		}
		if err := d.method(m); err != nil {
			return nil, err
		}
		c.Methods = append(c.Methods, m)
	}
	if d.lazy != nil {
		d.lazy.endClass(c)
	}
	return c, nil
}

func (d *decoder) sig() (jimple.Sig, error) {
	var s jimple.Sig
	var err error
	if s.Class, err = d.ref(); err != nil {
		return s, err
	}
	name, err := d.refIdx()
	if err != nil {
		return s, err
	}
	s.Name, d.lastName = d.pool[name], name
	np, err := d.count("param")
	if err != nil {
		return s, err
	}
	lo := len(d.params)
	for i := 0; i < np; i++ {
		p, err := d.ref()
		if err != nil {
			return s, err
		}
		d.params = append(d.params, p)
	}
	if np > 0 {
		s.Params = d.params[lo:len(d.params):len(d.params)]
	}
	if s.Ret, err = d.ref(); err != nil {
		return s, err
	}
	return s, nil
}

// method decodes one method header, and its body unless the decoder is
// skimming, into m.
func (d *decoder) method(m *jimple.Method) error {
	var err error
	if m.Sig, err = d.sig(); err != nil {
		return err
	}
	name := d.lastName
	flags, err := d.byte()
	if err != nil {
		return err
	}
	m.Static = flags&mflagStatic != 0
	m.Abstract = flags&mflagAbstract != 0
	if flags&mflagHasBody == 0 {
		m.Abstract = true
		return nil
	}
	if m.Abstract {
		// The encoder never emits both flags: an abstract method carrying
		// a body is malformed input, not a representable program
		// (fuzz-found canonicality break).
		return fmt.Errorf("method %s: abstract flag with body", m.Sig.Key())
	}
	if d.lazy != nil {
		return d.lazyBody(m, name)
	}
	return d.body(m)
}

// body decodes the encoded body section — locals, statements, traps, and
// the empty-body normalization — into m. It is the single decoder core
// shared by the eager path (method) and the lazy path (lazy.go), which
// skims it once for call records and re-runs it on demand to materialize
// a class; sharing it is what makes the two paths bit-identical.
func (d *decoder) body(m *jimple.Method) error {
	nl, err := d.count("local")
	if err != nil {
		return err
	}
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
	for i := 0; i < ns; i++ {
		s, err := d.stmt()
		if err != nil {
			return err
		}
		m.Body = append(m.Body, s)
	}
	nt, err := d.count("trap")
	if err != nil {
		return err
	}
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
		t.Begin, t.End, t.Handler, t.Exception = int(b), int(e), int(h), exc
		m.Traps = append(m.Traps, t)
	}
	if m.Body == nil {
		// A has-body method with zero statements decodes to the same
		// program state as an abstract stub; normalize it like the
		// jimple parser does so re-encoding is canonical.
		m.Abstract = true
		m.Locals = nil
		m.Traps = nil
	}
	return nil
}

func (d *decoder) stmt() (jimple.Stmt, error) {
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
		return &jimple.AssignStmt{LHS: lv, RHS: rhs}, nil
	case opInvoke:
		v, err := d.value()
		if err != nil {
			return nil, err
		}
		inv, ok := v.(jimple.InvokeExpr)
		if !ok {
			return nil, fmt.Errorf("invoke statement holds %T", v)
		}
		return &jimple.InvokeStmt{Call: inv}, nil
	case opIf:
		cond, err := d.value()
		if err != nil {
			return nil, err
		}
		t, err := d.u64()
		if err != nil {
			return nil, err
		}
		return &jimple.IfStmt{Cond: cond, Target: int(t)}, nil
	case opGoto:
		t, err := d.u64()
		if err != nil {
			return nil, err
		}
		return &jimple.GotoStmt{Target: int(t)}, nil
	case opReturn:
		v, err := d.value()
		if err != nil {
			return nil, err
		}
		return &jimple.ReturnStmt{V: v}, nil
	case opReturnVoid:
		return &jimple.ReturnStmt{}, nil
	case opThrow:
		v, err := d.value()
		if err != nil {
			return nil, err
		}
		return &jimple.ThrowStmt{V: v}, nil
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
	case tagLocal:
		n, err := d.ref()
		if err != nil {
			return nil, err
		}
		return jimple.Local{Name: n}, nil
	case tagIntConst:
		v, err := d.i64()
		if err != nil {
			return nil, err
		}
		return jimple.IntConst{V: v}, nil
	case tagStrConst:
		s, err := d.ref()
		if err != nil {
			return nil, err
		}
		return jimple.StrConst{V: s}, nil
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
	case tagThisRef:
		t, err := d.ref()
		if err != nil {
			return nil, err
		}
		return jimple.ThisRef{Type: t}, nil
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
	case tagNew:
		t, err := d.ref()
		if err != nil {
			return nil, err
		}
		return jimple.NewExpr{Type: t}, nil
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
		var args []jimple.Value
		for i := 0; i < na; i++ {
			a, err := d.value()
			if err != nil {
				return nil, err
			}
			args = append(args, a)
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

package jimple

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestSigKeyRoundTrip(t *testing.T) {
	cases := []Sig{
		{Class: "com.app.Main", Name: "onCreate", Params: []string{"android.os.Bundle"}, Ret: "void"},
		{Class: "a.B", Name: "<init>", Ret: "void"},
		{Class: "com.http.Client", Name: "get", Params: []string{"java.lang.String", "int"}, Ret: "com.http.Response"},
	}
	for _, want := range cases {
		got, err := ParseSigKey(want.Key())
		if err != nil {
			t.Fatalf("ParseSigKey(%q): %v", want.Key(), err)
		}
		if got.Key() != want.Key() {
			t.Errorf("round trip: got %q want %q", got.Key(), want.Key())
		}
	}
}

func TestParseSigKeyErrors(t *testing.T) {
	for _, bad := range []string{"", "noparens", "a.b(", "b()void", "a.b()", "(x)y"} {
		if _, err := ParseSigKey(bad); err == nil {
			t.Errorf("ParseSigKey(%q): expected error", bad)
		}
	}
}

func TestSubSigKeyIgnoresClass(t *testing.T) {
	a := Sig{Class: "x.A", Name: "m", Params: []string{"int"}, Ret: "void"}
	b := a.WithClass("y.B")
	if a.SubSigKey() != b.SubSigKey() {
		t.Errorf("subsig differs across classes: %q vs %q", a.SubSigKey(), b.SubSigKey())
	}
	if b.Class != "y.B" {
		t.Errorf("WithClass: got %q", b.Class)
	}
}

// TestHasSubSigMatchesRendering: HasSubSig agrees with comparing the
// rendered SubSigKey, and allocates nothing.
func TestHasSubSigMatchesRendering(t *testing.T) {
	sigs := []Sig{
		{Class: "x.A", Name: "m", Params: []string{"int"}, Ret: "void"},
		{Class: "x.A", Name: "m", Params: []string{"int", "long"}, Ret: "void"},
		{Class: "x", Name: "A.m", Params: []string{"int"}, Ret: "void"},
		{Class: "x.A", Name: "m", Ret: "void"},
		{Class: "x.A", Name: "m", Params: []string{"int,long"}, Ret: "void"},
		{Class: "", Name: "", Ret: ""},
	}
	for _, s := range sigs {
		for _, o := range sigs {
			if got, want := s.HasSubSig(o.SubSigKey()), s.SubSigKey() == o.SubSigKey(); got != want {
				t.Errorf("%+v.HasSubSig(%q) = %v, want %v", s, o.SubSigKey(), got, want)
			}
		}
		for _, k := range []string{"", "m(int)voi", "m(int)voidx", "m(int", "m(int,)void"} {
			if got, want := s.HasSubSig(k), s.SubSigKey() == k; got != want {
				t.Errorf("%+v.HasSubSig(%q) = %v, want %v", s, k, got, want)
			}
		}
	}
	sub := sigs[1].SubSigKey()
	if n := testing.AllocsPerRun(100, func() { sigs[1].HasSubSig(sub) }); n != 0 {
		t.Errorf("HasSubSig allocates %.0f times", n)
	}
}

func TestTypeHelpers(t *testing.T) {
	if !IsPrimitive("int") || IsPrimitive("java.lang.String") {
		t.Error("IsPrimitive misclassifies")
	}
	if !IsRef("byte[]") || !IsArray("byte[]") || ElemType("byte[]") != "byte" {
		t.Error("array helpers misbehave")
	}
	if SimpleName("com.app.Main$Listener") != "Main$Listener" {
		t.Errorf("SimpleName: %q", SimpleName("com.app.Main$Listener"))
	}
	if OuterClass("com.app.Main$Listener") != "com.app.Main" {
		t.Errorf("OuterClass: %q", OuterClass("com.app.Main$Listener"))
	}
	if OuterClass("com.app.Main") != "com.app.Main" {
		t.Errorf("OuterClass top-level: %q", OuterClass("com.app.Main"))
	}
}

func buildSampleMethod(t *testing.T) *Method {
	t.Helper()
	b := NewBody()
	c := b.Local("c", "com.http.BasicHttpClient")
	r := b.Local("r", "com.http.HttpResponse")
	done := b.NewLabel()
	hBegin := b.NewLabel()
	hEnd := b.NewLabel()
	handler := b.NewLabel()
	e := b.Local("e", "java.io.IOException")
	b.Bind(hBegin)
	b.New(c, "com.http.BasicHttpClient")
	getSig := Sig{Class: "com.http.BasicHttpClient", Name: "get", Params: []string{TypeString}, Ret: "com.http.HttpResponse"}
	b.InvokeAssign(r, InvokeVirtual, "c", getSig, StrConst{V: "http://example.com"})
	b.Bind(hEnd)
	b.If(BinExpr{Op: OpEQ, L: r, R: NullConst{}}, done)
	b.Return(r)
	b.Bind(handler)
	b.Assign(e, CaughtExRef{})
	b.Bind(done)
	b.Return(NullConst{})
	b.TrapRegion(hBegin, hEnd, handler, "java.io.IOException")
	m, err := b.Build(Sig{Class: "com.app.Main", Name: "fetch", Ret: "com.http.HttpResponse"}, false)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return m
}

func TestBuilderProducesValidMethod(t *testing.T) {
	m := buildSampleMethod(t)
	p := NewProgram()
	p.AddClass(&Class{Name: "com.app.Main", Super: TypeObject, Methods: []*Method{m}})
	if err := p.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if len(m.Traps) != 1 {
		t.Fatalf("traps: got %d want 1", len(m.Traps))
	}
	tr := m.Traps[0]
	if tr.Begin != 0 || tr.End <= tr.Begin || tr.Handler <= tr.End {
		t.Errorf("trap layout unexpected: %+v", tr)
	}
}

func TestBuilderUnboundLabel(t *testing.T) {
	b := NewBody()
	lbl := b.NewLabel()
	b.Goto(lbl)
	if _, err := b.Build(Sig{Class: "a.A", Name: "m", Ret: TypeVoid}, false); err == nil {
		t.Fatal("expected error for unbound label")
	}
}

func TestBuilderDoubleBind(t *testing.T) {
	b := NewBody()
	lbl := b.NewLabel()
	b.Bind(lbl)
	b.Return(nil)
	b.Bind(lbl)
	if _, err := b.Build(Sig{Class: "a.A", Name: "m", Ret: TypeVoid}, false); err == nil {
		t.Fatal("expected error for double bind")
	}
}

func TestValidateCatchesBadBranch(t *testing.T) {
	p := NewProgram()
	p.AddClass(&Class{Name: "a.A", Super: TypeObject, Methods: []*Method{{
		Sig:  Sig{Class: "a.A", Name: "m", Ret: TypeVoid},
		Body: []Stmt{&GotoStmt{Target: 5}},
	}}})
	if err := p.Validate(); err == nil {
		t.Fatal("expected out-of-range branch error")
	}
}

func TestValidateCatchesUndeclaredLocal(t *testing.T) {
	p := NewProgram()
	p.AddClass(&Class{Name: "a.A", Super: TypeObject, Methods: []*Method{{
		Sig:  Sig{Class: "a.A", Name: "m", Ret: TypeVoid},
		Body: []Stmt{&ReturnStmt{V: Local{Name: "ghost"}}},
	}}})
	if err := p.Validate(); err == nil {
		t.Fatal("expected undeclared-local error")
	}
}

func TestValidateCatchesBadTrap(t *testing.T) {
	p := NewProgram()
	p.AddClass(&Class{Name: "a.A", Super: TypeObject, Methods: []*Method{{
		Sig:   Sig{Class: "a.A", Name: "m", Ret: TypeVoid},
		Body:  []Stmt{&ReturnStmt{}},
		Traps: []Trap{{Begin: 0, End: 0, Handler: 0, Exception: "java.io.IOException"}},
	}}})
	if err := p.Validate(); err == nil {
		t.Fatal("expected bad-trap error")
	}
}

func TestPrintParseRoundTrip(t *testing.T) {
	m := buildSampleMethod(t)
	p := NewProgram()
	cls := &Class{
		Name: "com.app.Main", Super: "android.app.Activity",
		Interfaces: []string{"android.view.View$OnClickListener"},
		Fields:     []*Field{{Name: "mCount", Type: TypeInt}, {Name: "sInstance", Type: "com.app.Main", Static: true}},
		Methods:    []*Method{m},
	}
	p.AddClass(cls)
	text := Print(p)
	reparsed, err := Parse(text)
	if err != nil {
		t.Fatalf("Parse of printed program failed: %v\n%s", err, text)
	}
	text2 := Print(reparsed)
	if text != text2 {
		t.Errorf("print/parse/print not a fixed point:\n--- first ---\n%s\n--- second ---\n%s", text, text2)
	}
	if err := reparsed.Validate(); err != nil {
		t.Errorf("reparsed program invalid: %v", err)
	}
}

func TestParseRejectsGarbage(t *testing.T) {
	bad := []string{
		"garbage",
		"class A {\n  zork\n}",
		"class A {\n  method m()void {\n    x = \n  }\n}",
		"class A {\n  method m()void {\n    goto Lmissing\n  }\n}",
		"class A {\n  method m()void {\n    local param int\n  }\n}",
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse accepted garbage:\n%s", src)
		}
	}
}

func TestParseFieldRefForms(t *testing.T) {
	src := `class a.A extends java.lang.Object {
  field f int
  field static g int
  method m()void {
    local x int
    x = field(y,a.A,f)
    local y a.A
    sfield(a.A,g) = x
    field(y,a.A,f) = 7
    return
  }
}`
	p, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	m := p.Class("a.A").MethodNamed("m")
	if m == nil || len(m.Body) != 4 {
		t.Fatalf("unexpected parse result: %+v", m)
	}
	a0 := m.Body[0].(*AssignStmt)
	fr, ok := a0.RHS.(FieldRef)
	if !ok || fr.Base != "y" || fr.Field != "f" {
		t.Errorf("field read parsed wrong: %#v", a0.RHS)
	}
	a1 := m.Body[1].(*AssignStmt)
	sf, ok := a1.LHS.(FieldRef)
	if !ok || sf.Base != "" || sf.Field != "g" {
		t.Errorf("static field write parsed wrong: %#v", a1.LHS)
	}
}

func TestInvokeOfAndHelpers(t *testing.T) {
	sig := Sig{Class: "a.A", Name: "m", Ret: TypeVoid}
	inv := InvokeExpr{Kind: InvokeVirtual, Base: "x", Callee: sig}
	if _, ok := InvokeOf(&InvokeStmt{Call: inv}); !ok {
		t.Error("InvokeOf missed InvokeStmt")
	}
	if _, ok := InvokeOf(&AssignStmt{LHS: Local{Name: "y"}, RHS: inv}); !ok {
		t.Error("InvokeOf missed assign-invoke")
	}
	if _, ok := InvokeOf(&ReturnStmt{}); ok {
		t.Error("InvokeOf false positive")
	}
	if DefOf(&AssignStmt{LHS: Local{Name: "y"}, RHS: IntConst{V: 1}}) != "y" {
		t.Error("DefOf wrong")
	}
	if DefOf(&AssignStmt{LHS: FieldRef{Base: "x", Class: "a.A", Field: "f"}, RHS: IntConst{}}) != "" {
		t.Error("DefOf should ignore field stores")
	}
	uses := UsesOf(nil, &IfStmt{Cond: BinExpr{Op: OpEQ, L: Local{Name: "a"}, R: Local{Name: "b"}}})
	if len(uses) != 2 {
		t.Errorf("UsesOf if: %v", uses)
	}
	uses = UsesOf(nil, &AssignStmt{LHS: FieldRef{Base: "recv", Class: "a.A", Field: "f"}, RHS: Local{Name: "v"}})
	if len(uses) != 2 {
		t.Errorf("UsesOf field store should include receiver: %v", uses)
	}
}

func TestFallsThroughAndBranchTargets(t *testing.T) {
	if FallsThrough(&GotoStmt{Target: 0}) || FallsThrough(&ReturnStmt{}) || FallsThrough(&ThrowStmt{V: Local{Name: "e"}}) {
		t.Error("terminators must not fall through")
	}
	if !FallsThrough(&IfStmt{Cond: IntConst{V: 1}, Target: 0}) || !FallsThrough(&NopStmt{}) {
		t.Error("if/nop must fall through")
	}
	ts := BranchTargets(nil, &IfStmt{Cond: IntConst{V: 1}, Target: 3})
	if len(ts) != 1 || ts[0] != 3 {
		t.Errorf("BranchTargets if: %v", ts)
	}
}

func TestProgramMergePrefersReceiver(t *testing.T) {
	p := NewProgram()
	p.AddClass(&Class{Name: "a.A", Super: TypeObject})
	q := NewProgram()
	q.AddClass(&Class{Name: "a.A", Super: "x.Y"})
	q.AddClass(&Class{Name: "b.B", Super: TypeObject})
	p.Merge(q)
	if p.Class("a.A").Super != TypeObject {
		t.Error("Merge overwrote existing class")
	}
	if p.Class("b.B") == nil {
		t.Error("Merge dropped new class")
	}
	if p.NumClasses() != 2 {
		t.Errorf("NumClasses: %d", p.NumClasses())
	}
}

// Property: Sig.Key round-trips through ParseSigKey for arbitrary
// identifier-shaped components.
func TestQuickSigRoundTrip(t *testing.T) {
	clean := func(s string) string {
		var b strings.Builder
		for _, r := range s {
			if (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') || (r >= '0' && r <= '9') {
				b.WriteRune(r)
			}
		}
		if b.Len() == 0 {
			return "x"
		}
		return b.String()
	}
	f := func(cls, name, p1, p2, ret string) bool {
		sig := Sig{
			Class:  "pkg." + clean(cls),
			Name:   clean(name),
			Params: []string{clean(p1), clean(p2)},
			Ret:    clean(ret),
		}
		got, err := ParseSigKey(sig.Key())
		return err == nil && got.Key() == sig.Key()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: printing then parsing a random straight-line method is a fixed
// point of Print.
func TestQuickPrintParseStraightLine(t *testing.T) {
	f := func(vals []int8) bool {
		b := NewBody()
		x := b.Local("x", TypeInt)
		y := b.Local("y", TypeInt)
		b.Assign(x, IntConst{V: 0})
		for _, v := range vals {
			b.Assign(y, BinExpr{Op: OpAdd, L: x, R: IntConst{V: int64(v)}})
			b.Assign(x, y)
		}
		b.Return(x)
		m, err := b.Build(Sig{Class: "q.Q", Name: "m", Ret: TypeInt}, true)
		if err != nil {
			return false
		}
		p := NewProgram()
		p.AddClass(&Class{Name: "q.Q", Super: TypeObject, Methods: []*Method{m}})
		text := Print(p)
		re, err := Parse(text)
		if err != nil {
			return false
		}
		return Print(re) == text
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestNumStmts(t *testing.T) {
	m := buildSampleMethod(t)
	p := NewProgram()
	p.AddClass(&Class{Name: "com.app.Main", Super: TypeObject, Methods: []*Method{m}})
	if got := p.NumStmts(); got != len(m.Body) {
		t.Errorf("NumStmts: got %d want %d", got, len(m.Body))
	}
}

// kitchenSink exercises every statement and value form in one program.
const kitchenSink = `class k.Sink extends java.lang.Object implements k.I,k.J {
  field f int
  field static g java.lang.String
  method abstract absM(int)void
  method static util(int,java.lang.String)int {
    local a int
    local b int
    local s java.lang.String
    local o java.lang.Object
    local e java.lang.RuntimeException
    local flag boolean
    a = param 0 int
    s = param 1 java.lang.String
    b = a * 2
    b = a + 1
    b = a - 1
    b = a / 2
    b = a % 3
    b = a & 7
    b = a | 8
    b = a ^ 15
    flag = a <= b
    flag = a >= b
    flag = a < b
    flag = a > b
    flag = a != b
    flag = !flag
    o = cast java.lang.Object s
    flag = instanceof java.lang.String o
    sfield(k.Sink,g) = s
    s = sfield(k.Sink,g)
    if flag goto L1
    nop
    L0:
    e = new java.lang.RuntimeException
    specialinvoke e java.lang.RuntimeException.<init>()void
    throw e
    L1:
    goto L2
    L2:
    return b
    trap L0 L1 L1 java.lang.RuntimeException
  }
}
interface k.I {
}
interface k.J {
}`

func TestKitchenSinkRoundTrip(t *testing.T) {
	p, err := Parse(kitchenSink)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if err := p.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	text := Print(p)
	re, err := Parse(text)
	if err != nil {
		t.Fatalf("re-Parse: %v\n%s", err, text)
	}
	if Print(re) != text {
		t.Error("kitchen sink not a print/parse fixed point")
	}
}

func TestStringersSmoke(t *testing.T) {
	// Every node's String() must be non-empty (used in diagnostics).
	vals := []Value{
		Local{Name: "x"}, IntConst{V: 3}, StrConst{V: "s"}, NullConst{},
		ParamRef{Index: 1, Type: "int"}, ThisRef{Type: "a.A"}, CaughtExRef{},
		FieldRef{Base: "x", Class: "a.A", Field: "f"},
		FieldRef{Class: "a.A", Field: "g"},
		NewExpr{Type: "a.A"},
		InvokeExpr{Kind: InvokeStatic, Callee: Sig{Class: "a.A", Name: "m", Ret: "void"}},
		InvokeExpr{Kind: InvokeVirtual, Base: "x", Callee: Sig{Class: "a.A", Name: "m", Ret: "void"},
			Args: []Value{IntConst{V: 1}}},
		BinExpr{Op: OpAdd, L: IntConst{V: 1}, R: IntConst{V: 2}},
		NegExpr{V: Local{Name: "b"}},
		CastExpr{Type: "a.A", V: Local{Name: "x"}},
		InstanceOfExpr{Type: "a.A", V: Local{Name: "x"}},
	}
	for _, v := range vals {
		if v.String() == "" {
			t.Errorf("empty String() for %T", v)
		}
	}
	stmts := []Stmt{
		&AssignStmt{LHS: Local{Name: "x"}, RHS: IntConst{V: 1}},
		&InvokeStmt{Call: InvokeExpr{Kind: InvokeStatic, Callee: Sig{Class: "a.A", Name: "m", Ret: "void"}}},
		&IfStmt{Cond: Local{Name: "c"}, Target: 0},
		&GotoStmt{Target: 0},
		&ReturnStmt{}, &ReturnStmt{V: Local{Name: "x"}},
		&ThrowStmt{V: Local{Name: "e"}},
		&NopStmt{},
	}
	for _, s := range stmts {
		if s.String() == "" {
			t.Errorf("empty String() for %T", s)
		}
	}
	for _, k := range []InvokeKind{InvokeVirtual, InvokeInterface, InvokeSpecial, InvokeStatic} {
		if k.String() == "" {
			t.Errorf("empty kind string %d", k)
		}
	}
	for op := OpEQ; op <= OpXor; op++ {
		if op.String() == "" {
			t.Errorf("empty op string %d", op)
		}
	}
}

func TestBuilderAuxiliaries(t *testing.T) {
	b := NewBody()
	e := b.Local("e", "java.lang.RuntimeException")
	if b.Mark() != 0 {
		t.Error("Mark should start at 0")
	}
	begin := b.Mark()
	b.Invoke(InvokeStatic, "", Sig{Class: "a.A", Name: "go", Ret: TypeVoid})
	end := b.Mark()
	b.Nop()
	handler := b.Mark()
	b.Assign(e, CaughtExRef{})
	b.Throw(e)
	b.TrapAt(begin, end, handler, "java.lang.RuntimeException")
	m := b.MustBuild(Sig{Class: "a.A", Name: "aux", Ret: TypeVoid}, true)
	if len(m.Traps) != 1 || m.Traps[0].Handler != handler {
		t.Errorf("TrapAt mishandled: %+v", m.Traps)
	}
	if m.LocalType("e") != "java.lang.RuntimeException" || m.LocalType("ghost") != "" {
		t.Error("LocalType wrong")
	}
}

func TestProgramMethodLookup(t *testing.T) {
	p := MustParse(kitchenSink)
	sig := Sig{Class: "k.Sink", Name: "util", Params: []string{"int", TypeString}, Ret: TypeInt}
	if p.Method(sig) == nil {
		t.Error("Program.Method failed")
	}
	if p.Method(sig.WithClass("no.Such")) != nil {
		t.Error("Program.Method false positive")
	}
	c := p.Class("k.Sink")
	m := &Method{Sig: Sig{Name: "added", Ret: TypeVoid}, Abstract: true}
	c.AddMethod(m)
	if m.Sig.Class != "k.Sink" {
		t.Error("AddMethod should set the declaring class")
	}
	if PrintClass(c) == "" {
		t.Error("PrintClass empty")
	}
}

func TestMustParsePanicsOnGarbage(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustParse should panic on garbage")
		}
	}()
	MustParse("zork")
}

func TestOverlayProgram(t *testing.T) {
	base := MustParse(`class java.lang.Object {
}
class b.A extends java.lang.Object {
}
class b.C extends java.lang.Object {
  method m()void {
    return
  }
}`).Freeze()
	app := MustParse(`class a.X extends b.A {
}
class b.C extends b.A {
}`)
	p := NewOverlay(app, base)
	if p.Class("b.C") != app.Class("b.C") || p.Class("b.A") != base.Class("b.A") {
		t.Fatal("overlay must resolve own classes first, then the base")
	}
	if p.Method(Sig{Class: "b.C", Name: "m", Ret: TypeVoid}) != nil {
		t.Error("a shadowed base class's methods must not show through")
	}
	var names []string
	for _, c := range p.Classes() {
		names = append(names, c.Name)
	}
	if got := strings.Join(names, " "); got != "a.X b.A b.C java.lang.Object" || p.NumClasses() != 4 {
		t.Errorf("Classes() = %q, NumClasses = %d", got, p.NumClasses())
	}
	if p.NumStmts() != 0 {
		t.Errorf("NumStmts = %d, want 0 (the only body is shadowed)", p.NumStmts())
	}

	// Merge keeps the "p wins" rule across both layers; AddClass shadows.
	p.Merge(MustParse("class b.A extends b.C {\n}\nclass a.Y extends b.A {\n}"))
	if p.Class("b.A") != base.Class("b.A") || p.Class("a.Y") == nil {
		t.Error("Merge must keep classes present in either layer and add new ones")
	}
	p.AddClass(&Class{Name: "b.A", Super: TypeObject})
	if p.NumClasses() != 5 || base.Class("b.A").Super != TypeObject || base.NumClasses() != 3 {
		t.Errorf("AddClass over a base class: NumClasses = %d, base has %d", p.NumClasses(), base.NumClasses())
	}
}

func TestFrozenProgramRejectsWrites(t *testing.T) {
	p := MustParse("class x.A {\n}").Freeze()
	for name, write := range map[string]func(){
		"AddClass": func() { p.AddClass(&Class{Name: "x.B"}) },
		"Merge":    func() { p.Merge(NewProgram()) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s on a frozen program did not panic", name)
				}
			}()
			write()
		}()
	}
	if p.NumClasses() != 1 {
		t.Errorf("frozen program changed: %d classes", p.NumClasses())
	}
}

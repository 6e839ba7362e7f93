package hierarchy

import (
	"testing"

	"repro/internal/jimple"
)

func buildProg() *jimple.Program {
	src := `class java.lang.Object {
}
interface x.Iface {
  method abstract m()void
}
class x.A extends java.lang.Object {
  method m()void {
    return
  }
}
class x.B extends x.A implements x.Iface {
  method m()void {
    return
  }
}
class x.C extends x.B {
}
class x.D extends x.A {
  method m()void {
    return
  }
  method only()void {
    return
  }
}`
	return jimple.MustParse(src)
}

func TestIsSubtype(t *testing.T) {
	h := New(buildProg())
	cases := []struct {
		sub, super string
		want       bool
	}{
		{"x.C", "x.A", true},
		{"x.C", "x.Iface", true},
		{"x.B", "x.Iface", true},
		{"x.A", "x.Iface", false},
		{"x.A", "x.B", false},
		{"x.A", "x.A", true},
		{"x.D", "java.lang.Object", true},
		{"ghost.Phantom", "x.A", false},
	}
	for _, c := range cases {
		if got := h.IsSubtype(c.sub, c.super); got != c.want {
			t.Errorf("IsSubtype(%s, %s) = %v, want %v", c.sub, c.super, got, c.want)
		}
	}
}

// TestAppendSupertypes: the appended names are exactly those IsSubtype
// accepts, each once.
func TestAppendSupertypes(t *testing.T) {
	h := New(buildProg())
	all := []string{"java.lang.Object", "x.Iface", "x.A", "x.B", "x.C", "x.D", "ghost.Phantom"}
	for _, c := range all {
		got := h.AppendSupertypes([]string{"keep"}, c)
		if got[0] != "keep" || got[1] != c {
			t.Fatalf("AppendSupertypes(%s) = %v: want the prefix kept and %s first", c, got, c)
		}
		seen := map[string]bool{}
		for _, s := range got[1:] {
			if seen[s] {
				t.Errorf("AppendSupertypes(%s) repeats %s: %v", c, s, got)
			}
			seen[s] = true
		}
		for _, s := range all {
			if seen[s] != h.IsSubtype(c, s) {
				t.Errorf("AppendSupertypes(%s) has %s = %v, IsSubtype says %v", c, s, seen[s], h.IsSubtype(c, s))
			}
		}
	}
}

// TestDeclaredMethod: a class's own declaration only, never an inherited
// one.
func TestDeclaredMethod(t *testing.T) {
	h := New(buildProg())
	if m := h.DeclaredMethod("x.D", "only()void"); m == nil || m.Sig.Class != "x.D" {
		t.Errorf("DeclaredMethod(x.D, only) = %v", m)
	}
	if m := h.DeclaredMethod("x.C", "m()void"); m != nil {
		t.Errorf("DeclaredMethod(x.C, m) = %v, want nil: x.C inherits m", m.Sig)
	}
	if m := h.DeclaredMethod("ghost.Phantom", "m()void"); m != nil {
		t.Errorf("DeclaredMethod on a phantom = %v", m.Sig)
	}
}

func TestSubtypesOf(t *testing.T) {
	h := New(buildProg())
	subs := h.SubtypesOf("x.A")
	want := []string{"x.A", "x.B", "x.C", "x.D"}
	if len(subs) != len(want) {
		t.Fatalf("SubtypesOf(x.A) = %v, want %v", subs, want)
	}
	for i := range want {
		if subs[i] != want[i] {
			t.Fatalf("SubtypesOf(x.A) = %v, want %v", subs, want)
		}
	}
	ifaceSubs := h.SubtypesOf("x.Iface")
	if len(ifaceSubs) != 3 { // Iface, B, C
		t.Errorf("SubtypesOf(x.Iface) = %v", ifaceSubs)
	}
}

func TestSupertypes(t *testing.T) {
	h := New(buildProg())
	sup := h.Supertypes("x.C")
	want := map[string]bool{"x.B": true, "x.A": true, "x.Iface": true, "java.lang.Object": true}
	if len(sup) != len(want) {
		t.Fatalf("Supertypes(x.C) = %v", sup)
	}
	for _, s := range sup {
		if !want[s] {
			t.Errorf("unexpected supertype %s", s)
		}
	}
}

func TestLookupMethodWalksSuperChain(t *testing.T) {
	h := New(buildProg())
	// x.C defines nothing; lookup should find x.B.m.
	m := h.LookupMethod("x.C", "m()void")
	if m == nil || m.Sig.Class != "x.B" {
		t.Fatalf("LookupMethod(x.C, m): got %v", m)
	}
	if h.LookupMethod("x.C", "nosuch()void") != nil {
		t.Error("LookupMethod found a ghost method")
	}
}

func TestDispatchVirtual(t *testing.T) {
	h := New(buildProg())
	call := jimple.InvokeExpr{
		Kind:   jimple.InvokeVirtual,
		Base:   "o",
		Callee: jimple.Sig{Class: "x.A", Name: "m", Ret: jimple.TypeVoid},
	}
	targets := h.Dispatch(call, call.Callee.SubSigKey())
	// A.m, B.m (covers C), D.m — three distinct bodies.
	if len(targets) != 3 {
		t.Fatalf("Dispatch: got %d targets %v", len(targets), sigKeys(targets))
	}
}

func TestDispatchInterface(t *testing.T) {
	h := New(buildProg())
	call := jimple.InvokeExpr{
		Kind:   jimple.InvokeInterface,
		Base:   "o",
		Callee: jimple.Sig{Class: "x.Iface", Name: "m", Ret: jimple.TypeVoid},
	}
	targets := h.Dispatch(call, call.Callee.SubSigKey())
	if len(targets) != 1 || targets[0].Sig.Class != "x.B" {
		t.Fatalf("interface dispatch: %v", sigKeys(targets))
	}
}

func TestDispatchSpecialAndStatic(t *testing.T) {
	h := New(buildProg())
	call := jimple.InvokeExpr{
		Kind:   jimple.InvokeSpecial,
		Base:   "o",
		Callee: jimple.Sig{Class: "x.B", Name: "m", Ret: jimple.TypeVoid},
	}
	targets := h.Dispatch(call, call.Callee.SubSigKey())
	if len(targets) != 1 || targets[0].Sig.Class != "x.B" {
		t.Fatalf("special dispatch: %v", sigKeys(targets))
	}
	// Special dispatch on a class that inherits the method resolves up.
	call.Callee.Class = "x.C"
	targets = h.Dispatch(call, call.Callee.SubSigKey())
	if len(targets) != 1 || targets[0].Sig.Class != "x.B" {
		t.Fatalf("special dispatch via super chain: %v", sigKeys(targets))
	}
}

func TestDeclaredDispatchMissesOverrides(t *testing.T) {
	h := New(buildProg())
	call := jimple.InvokeExpr{
		Kind:   jimple.InvokeVirtual,
		Base:   "o",
		Callee: jimple.Sig{Class: "x.A", Name: "m", Ret: jimple.TypeVoid},
	}
	targets := h.DeclaredDispatch(call, call.Callee.SubSigKey())
	if len(targets) != 1 || targets[0].Sig.Class != "x.A" {
		t.Fatalf("DeclaredDispatch: %v", sigKeys(targets))
	}
}

func TestDispatchPhantomClass(t *testing.T) {
	h := New(buildProg())
	call := jimple.InvokeExpr{
		Kind:   jimple.InvokeVirtual,
		Base:   "o",
		Callee: jimple.Sig{Class: "ghost.Phantom", Name: "m", Ret: jimple.TypeVoid},
	}
	if got := h.Dispatch(call, call.Callee.SubSigKey()); len(got) != 0 {
		t.Errorf("phantom dispatch should be empty, got %v", sigKeys(got))
	}
}

func sigKeys(ms []*jimple.Method) []string {
	out := make([]string, len(ms))
	for i, m := range ms {
		out[i] = m.Sig.Key()
	}
	return out
}

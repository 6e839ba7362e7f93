package dataflow

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/cfg"
	"repro/internal/jimple"
)

func methodOf(t *testing.T, src string) *jimple.Method {
	t.Helper()
	prog := jimple.MustParse(src)
	if err := prog.Validate(); err != nil {
		t.Fatalf("test method invalid: %v", err)
	}
	for _, c := range prog.Classes() {
		for _, m := range c.Methods {
			if m.HasBody() {
				return m
			}
		}
	}
	t.Fatal("no method found")
	return nil
}

func TestReachDefsStraightLine(t *testing.T) {
	m := methodOf(t, `class t.T extends java.lang.Object {
  method m()void {
    local x int
    x = 1
    x = 2
    return x
  }
}`)
	rd := NewReachDefs(nil, cfg.New(nil, m))
	// At the return (stmt 2), only the second def (stmt 1) reaches.
	defs := rd.DefsReaching(2, "x")
	if len(defs) != 1 || defs[0] != 1 {
		t.Errorf("DefsReaching: %v", defs)
	}
	if rd.DefOfStmt(0) != "x" || rd.DefOfStmt(2) != "" {
		t.Error("DefOfStmt misbehaves")
	}
}

func TestReachDefsDiamond(t *testing.T) {
	m := methodOf(t, `class t.T extends java.lang.Object {
  method m(int)void {
    local c int
    local x int
    c = param 0 int
    if c == 0 goto L1
    x = 1
    goto L2
    L1:
    x = 2
    L2:
    return x
  }
}`)
	rd := NewReachDefs(nil, cfg.New(nil, m))
	// Both defs of x (stmts 2 and 4) reach the return (stmt 5).
	defs := rd.DefsReaching(5, "x")
	if len(defs) != 2 || defs[0] != 2 || defs[1] != 4 {
		t.Errorf("DefsReaching at join: %v", defs)
	}
}

func TestConstPropAgreeingPaths(t *testing.T) {
	m := methodOf(t, `class t.T extends java.lang.Object {
  method m(int)void {
    local c int
    local x int
    local y int
    c = param 0 int
    if c == 0 goto L1
    x = 5
    goto L2
    L1:
    x = 5
    L2:
    y = x + 2
    return y
  }
}`)
	g := cfg.New(nil, m)
	cp := NewConstProp(NewReachDefs(nil, g))
	v, ok := cp.IntAt(6, "y")
	// y defined at 5; at stmt 6 (return) y == 7.
	if !ok || v != 7 {
		t.Errorf("IntAt(y) = %d, %v; want 7, true", v, ok)
	}
	if v, ok := cp.IntAt(5, "x"); !ok || v != 5 {
		t.Errorf("IntAt(x) = %d, %v; want 5, true", v, ok)
	}
}

func TestConstPropConflictingPaths(t *testing.T) {
	m := methodOf(t, `class t.T extends java.lang.Object {
  method m(int)void {
    local c int
    local x int
    c = param 0 int
    if c == 0 goto L1
    x = 1
    goto L2
    L1:
    x = 2
    L2:
    return x
  }
}`)
	cp := NewConstProp(NewReachDefs(nil, cfg.New(nil, m)))
	if _, ok := cp.IntAt(5, "x"); ok {
		t.Error("conflicting paths should not be constant")
	}
}

func TestConstPropNonConstant(t *testing.T) {
	m := methodOf(t, `class t.T extends java.lang.Object {
  method m(int)void {
    local x int
    x = param 0 int
    return x
  }
}`)
	cp := NewConstProp(NewReachDefs(nil, cfg.New(nil, m)))
	if _, ok := cp.IntAt(1, "x"); ok {
		t.Error("parameter value must not be constant")
	}
}

func TestConstPropArgInt(t *testing.T) {
	m := methodOf(t, `class t.T extends java.lang.Object {
  method m()void {
    local n int
    local c t.Client
    c = new t.Client
    specialinvoke c t.Client.<init>()void
    n = 3
    virtualinvoke c t.Client.setMaxRetries(int)void n
    virtualinvoke c t.Client.setTimeout(int)void 2500
    return
  }
}`)
	cp := NewConstProp(NewReachDefs(nil, cfg.New(nil, m)))
	inv1, _ := jimple.InvokeOf(m.Body[3])
	if v, ok := cp.ArgInt(3, inv1, 0); !ok || v != 3 {
		t.Errorf("ArgInt via local: %d, %v", v, ok)
	}
	inv2, _ := jimple.InvokeOf(m.Body[4])
	if v, ok := cp.ArgInt(4, inv2, 0); !ok || v != 2500 {
		t.Errorf("ArgInt literal: %d, %v", v, ok)
	}
	if _, ok := cp.ArgInt(4, inv2, 9); ok {
		t.Error("out-of-range arg index should fail")
	}
}

func TestForwardTaintCopiesAndCalls(t *testing.T) {
	m := methodOf(t, `class t.T extends java.lang.Object {
  method m()void {
    local r t.Response
    local s t.Response
    local b java.lang.String
    local clean int
    r = staticinvoke t.Client.get()t.Response
    s = r
    b = virtualinvoke s t.Response.getBody()java.lang.String
    clean = 1
    return
  }
}`)
	g := cfg.New(nil, m)
	res := ForwardTaint(nil, g, map[int][]string{0: {"r"}}, DefaultTaintOptions())
	if !res.TaintedAt(1, "r") {
		t.Error("r should be tainted after its def")
	}
	if !res.TaintedAt(2, "s") {
		t.Error("s should be tainted via copy")
	}
	if !res.TaintedAt(3, "b") {
		t.Error("b should be tainted via receiver call")
	}
	if res.TaintedAt(4, "clean") {
		t.Error("clean must not be tainted")
	}
	locals := res.TaintedLocalsAt(4)
	if len(locals) != 3 {
		t.Errorf("TaintedLocalsAt: %v", locals)
	}
}

// TestForwardTaintWideAndUnnamed: taint rows span more than one word of
// local ids, and a source the body never names still taints (it gets a
// private id) without disturbing the others.
func TestForwardTaintWideAndUnnamed(t *testing.T) {
	var src strings.Builder
	src.WriteString("class t.T extends java.lang.Object {\n  method m()void {\n")
	for i := 0; i < 70; i++ {
		fmt.Fprintf(&src, "    local l%02d t.Response\n", i)
	}
	src.WriteString("    l00 = staticinvoke t.Client.get()t.Response\n")
	for i := 1; i < 70; i++ {
		fmt.Fprintf(&src, "    l%02d = l%02d\n", i, i-1)
	}
	src.WriteString("    return\n  }\n}")
	g := cfg.New(nil, methodOf(t, src.String()))
	res := ForwardTaint(nil, g, map[int][]string{0: {"l00", "ghost"}}, DefaultTaintOptions())
	end := 70
	if !res.TaintedAt(end, "l69") || !res.TaintedAt(end, "l00") || !res.TaintedAt(end, "ghost") {
		t.Error("the copy chain and the unnamed source must reach the end")
	}
	if res.TaintedAt(1, "l01") || res.TaintedAt(0, "ghost") {
		t.Error("taint arrived before its definition")
	}
	locals := res.TaintedLocalsAt(end)
	if len(locals) != 71 || !sort.StringsAreSorted(locals) || locals[70] != "l69" {
		t.Errorf("TaintedLocalsAt(end) = %v", locals)
	}
	if !slices.Equal(g.Locals()[:2], []string{"l00", "l01"}) || cfg.LocalIn(g.Locals(), "ghost") != -1 {
		t.Error("the unnamed source leaked into the method's local index")
	}
}

func TestForwardTaintStrongUpdate(t *testing.T) {
	m := methodOf(t, `class t.T extends java.lang.Object {
  method m()void {
    local r t.Response
    r = staticinvoke t.Client.get()t.Response
    r = null
    return
  }
}`)
	g := cfg.New(nil, m)
	res := ForwardTaint(nil, g, map[int][]string{0: {"r"}}, DefaultTaintOptions())
	if !res.TaintedAt(1, "r") {
		t.Error("r tainted before overwrite")
	}
	if res.TaintedAt(2, "r") {
		t.Error("strong update should clear taint")
	}
}

func TestForwardTaintFieldStore(t *testing.T) {
	m := methodOf(t, `class t.T extends java.lang.Object {
  field holder t.Holder
  method m()void {
    local h t.Holder
    local r t.Response
    local x t.Response
    h = new t.Holder
    specialinvoke h t.Holder.<init>()void
    r = staticinvoke t.Client.get()t.Response
    field(h,t.Holder,resp) = r
    x = field(h,t.Holder,resp)
    return
  }
}`)
	g := cfg.New(nil, m)
	res := ForwardTaint(nil, g, map[int][]string{2: {"r"}}, DefaultTaintOptions())
	if !res.TaintedAt(4, "h") {
		t.Error("object should be tainted by storing a tainted value")
	}
	if !res.TaintedAt(5, "x") {
		t.Error("field load from tainted object should be tainted")
	}
}

func TestAllocSitesOf(t *testing.T) {
	m := methodOf(t, `class t.T extends java.lang.Object {
  method m()void {
    local a t.Client
    local b t.Client
    local c t.Client
    a = new t.Client
    specialinvoke a t.Client.<init>()void
    b = a
    c = cast t.Client b
    virtualinvoke c t.Client.get()void
    return
  }
}`)
	g := cfg.New(nil, m)
	rd := NewReachDefs(nil, g)
	allocs := AllocSitesOf(rd, 4, "c")
	if len(allocs) != 1 || allocs[0] != 0 {
		t.Errorf("AllocSitesOf: %v, want [0]", allocs)
	}
}

func TestCallsOnObject(t *testing.T) {
	m := methodOf(t, `class t.T extends java.lang.Object {
  method m()void {
    local c t.Client
    local d t.Client
    local other t.Client
    local r t.Response
    c = new t.Client
    specialinvoke c t.Client.<init>()void
    virtualinvoke c t.Client.setTimeout(int)void 2500
    d = c
    virtualinvoke d t.Client.setMaxRetries(int)void 2
    other = new t.Client
    specialinvoke other t.Client.<init>()void
    virtualinvoke other t.Client.setTimeout(int)void 1
    r = virtualinvoke c t.Client.get()t.Response
    return
  }
}`)
	g := cfg.New(nil, m)
	rd := NewReachDefs(nil, g)
	// Request site is stmt 9 (r = c.get()).
	calls := CallsOnObject(g, rd, 9, "c")
	var names []string
	for _, oc := range calls {
		names = append(names, oc.Callee.Name)
	}
	want := map[string]bool{"<init>": true, "setTimeout": true, "setMaxRetries": true, "get": true}
	seen := map[string]int{}
	for _, n := range names {
		seen[n]++
	}
	if !want["setTimeout"] || seen["setTimeout"] != 1 {
		t.Errorf("calls on object: %v (setTimeout on the *other* client must be excluded)", names)
	}
	if seen["setMaxRetries"] != 1 {
		t.Errorf("alias call missed: %v", names)
	}
	if seen["get"] != 1 {
		t.Errorf("request call missed: %v", names)
	}
}

func TestBackwardSlice(t *testing.T) {
	m := methodOf(t, `class t.T extends java.lang.Object {
  method m(int)void {
    local a int
    local b int
    local c int
    local unrelated int
    a = param 0 int
    unrelated = 42
    b = a + 1
    if b > 10 goto L1
    c = 1
    goto L2
    L1:
    c = 2
    L2:
    return c
  }
}`)
	g := cfg.New(nil, m)
	sl := NewSlicer(g, NewReachDefs(nil, g))
	slice := sl.BackwardSlice(7) // return c
	// Slice must contain: defs of c (4, 6), the branch (3), def of b (2),
	// def of a (0) — but not unrelated (1).
	for _, want := range []int{7, 4, 6, 3, 2, 0} {
		if !slice[want] {
			t.Errorf("slice missing stmt %d: %v", want, sl.SortedSlice(7))
		}
	}
	if slice[1] {
		t.Errorf("slice must not include unrelated def: %v", sl.SortedSlice(7))
	}
	if !sl.DependsOnAny(7, map[int]bool{2: true}) {
		t.Error("DependsOnAny should see the b dependency")
	}
	if sl.DependsOnAny(7, map[int]bool{1: true}) {
		t.Error("DependsOnAny false positive on unrelated stmt")
	}
}

// Property: a backward slice always contains its seed and is closed under
// taking slices again (slicing any member adds nothing new).
func TestQuickSliceClosure(t *testing.T) {
	m := methodOf(t, `class t.T extends java.lang.Object {
  method m(int)void {
    local a int
    local b int
    local c int
    a = param 0 int
    b = a * 2
    if b > 4 goto L1
    c = b + 1
    goto L2
    L1:
    c = a
    L2:
    b = c - 1
    return b
  }
}`)
	g := cfg.New(nil, m)
	sl := NewSlicer(g, NewReachDefs(nil, g))
	n := len(m.Body)
	f := func(seedRaw uint8) bool {
		seed := int(seedRaw) % n
		slice := sl.BackwardSlice(seed)
		if !slice[seed] {
			return false
		}
		for member := range slice {
			sub := sl.BackwardSlice(member)
			for x := range sub {
				if !slice[x] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

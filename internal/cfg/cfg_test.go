package cfg

import (
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/jimple"
)

// diamond builds:
//
//	0: if x == 0 goto 3
//	1: y = 1
//	2: goto 4
//	3: y = 2
//	4: return y
func diamond(t *testing.T) *jimple.Method {
	t.Helper()
	b := jimple.NewBody()
	x := b.Local("x", jimple.TypeInt)
	y := b.Local("y", jimple.TypeInt)
	elseL := b.NewLabel()
	join := b.NewLabel()
	b.If(jimple.BinExpr{Op: jimple.OpEQ, L: x, R: jimple.IntConst{V: 0}}, elseL)
	b.Assign(y, jimple.IntConst{V: 1})
	b.Goto(join)
	b.Bind(elseL)
	b.Assign(y, jimple.IntConst{V: 2})
	b.Bind(join)
	b.Return(y)
	m, err := b.Build(jimple.Sig{Class: "t.T", Name: "d", Ret: jimple.TypeInt}, true)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return m
}

// loopMethod builds a retry-style loop:
//
//	0: ok = 0
//	1: if ok != 0 goto 4   (header)
//	2: ok = call()
//	3: goto 1
//	4: return
func loopMethod(t *testing.T) *jimple.Method {
	t.Helper()
	b := jimple.NewBody()
	ok := b.Local("ok", jimple.TypeInt)
	head := b.NewLabel()
	done := b.NewLabel()
	b.Assign(ok, jimple.IntConst{V: 0})
	b.Bind(head)
	b.If(jimple.BinExpr{Op: jimple.OpNE, L: ok, R: jimple.IntConst{V: 0}}, done)
	b.InvokeAssign(ok, jimple.InvokeStatic, "", jimple.Sig{Class: "t.T", Name: "call", Ret: jimple.TypeInt})
	b.Goto(head)
	b.Bind(done)
	b.Return(nil)
	m, err := b.Build(jimple.Sig{Class: "t.T", Name: "loop", Ret: jimple.TypeVoid}, true)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return m
}

// TestLocalsIndex: every declared or named local, sorted and once, and
// shared with the graphs WithoutEdges derives.
func TestLocalsIndex(t *testing.T) {
	m := loopMethod(t)
	// A body may name a local it never declares.
	m.Body = append([]jimple.Stmt{&jimple.AssignStmt{LHS: jimple.Local{Name: "extra"}, RHS: jimple.IntConst{V: 1}}}, m.Body...)
	for i := range m.Body[1:] {
		if iff, ok := m.Body[i+1].(*jimple.IfStmt); ok {
			iff.Target++
		}
		if g, ok := m.Body[i+1].(*jimple.GotoStmt); ok {
			g.Target++
		}
	}
	g := New(nil, m)
	want := []string{"extra", "ok"}
	if got := g.Locals(); !slices.Equal(got, want) {
		t.Fatalf("Locals = %v, want %v", got, want)
	}
	for i, name := range want {
		if id := LocalIn(g.Locals(), name); id != i {
			t.Errorf("LocalIn(%s) = %d, want %d", name, id, i)
		}
	}
	if id := LocalIn(g.Locals(), "absent"); id != -1 {
		t.Errorf("LocalIn(absent) = %d, want -1", id)
	}
	pruned := g.WithoutEdges([][2]int{{0, 1}})
	if &pruned.Locals()[0] != &g.Locals()[0] {
		t.Error("a pruned graph rebuilt the local index")
	}
}

func TestDiamondEdges(t *testing.T) {
	g := New(nil, diamond(t))
	if g.NumNodes() != 6 { // 5 stmts + exit
		t.Fatalf("NumNodes: %d", g.NumNodes())
	}
	wantSuccs := map[int][]int{0: {3, 1}, 1: {2}, 2: {4}, 3: {4}, 4: {5}}
	for n, want := range wantSuccs {
		got := g.Succs(n)
		if len(got) != len(want) {
			t.Errorf("Succs(%d): got %v want %v", n, got, want)
			continue
		}
		for _, w := range want {
			found := false
			for _, s := range got {
				if s == w {
					found = true
				}
			}
			if !found {
				t.Errorf("Succs(%d) missing %d: %v", n, w, got)
			}
		}
	}
	if len(g.Preds(4)) != 2 {
		t.Errorf("Preds(4): %v", g.Preds(4))
	}
}

func TestDiamondDominators(t *testing.T) {
	g := New(nil, diamond(t))
	idom := g.Dominators()
	// Node 4 (join) is dominated by 0, not by 1 or 3.
	if !Dominates(idom, 0, 4) {
		t.Error("entry should dominate join")
	}
	if Dominates(idom, 1, 4) || Dominates(idom, 3, 4) {
		t.Error("branch arms must not dominate the join")
	}
	if idom[4] != 0 {
		t.Errorf("idom[4] = %d, want 0", idom[4])
	}
}

func TestDiamondPostDominators(t *testing.T) {
	g := New(nil, diamond(t))
	ipdom := g.PostDominators()
	// The join (4) post-dominates everything before it.
	for n := 0; n <= 3; n++ {
		if !Dominates(ipdom, 4, n) {
			t.Errorf("join should post-dominate node %d", n)
		}
	}
}

func TestControlDeps(t *testing.T) {
	g := New(nil, diamond(t))
	deps := g.ControlDeps()
	// Nodes 1,2 (then-arm) and 3 (else-arm) are control dependent on 0.
	for _, n := range []int{1, 2, 3} {
		if !slices.Contains(deps[n], 0) {
			t.Errorf("node %d should be control dependent on the branch", n)
		}
	}
	// The join is not control dependent on the branch.
	if slices.Contains(deps[4], 0) {
		t.Error("join must not be control dependent on the branch")
	}
}

func TestNaturalLoops(t *testing.T) {
	g := New(nil, loopMethod(t))
	loops := g.NaturalLoops()
	if len(loops) != 1 {
		t.Fatalf("loops: got %d want 1", len(loops))
	}
	l := loops[0]
	if l.Head != 1 {
		t.Errorf("loop head: got %d want 1", l.Head)
	}
	for _, n := range []int{1, 2, 3} {
		if !l.Contains(n) {
			t.Errorf("loop should contain node %d", n)
		}
	}
	if l.Contains(0) || l.Contains(4) {
		t.Error("loop contains nodes outside the cycle")
	}
	exits := l.ExitEdges(g)
	if len(exits) != 1 || exits[0] != [2]int{1, 4} {
		t.Errorf("ExitEdges: %v", exits)
	}
}

func TestExceptionalEdges(t *testing.T) {
	b := jimple.NewBody()
	e := b.Local("e", "java.io.IOException")
	begin := b.NewLabel()
	end := b.NewLabel()
	handler := b.NewLabel()
	b.Bind(begin)
	b.Invoke(jimple.InvokeStatic, "", jimple.Sig{Class: "t.T", Name: "mayThrow", Ret: jimple.TypeVoid})
	b.Bind(end)
	b.Return(nil)
	b.Bind(handler)
	b.Assign(e, jimple.CaughtExRef{})
	b.Return(nil)
	b.TrapRegion(begin, end, handler, "java.io.IOException")
	m, err := b.Build(jimple.Sig{Class: "t.T", Name: "f", Ret: jimple.TypeVoid}, true)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	g := New(nil, m)
	// Statement 0 is inside the trap: must have an edge to the handler (2).
	found := false
	for _, s := range g.Succs(0) {
		if s == 2 {
			found = true
		}
	}
	if !found {
		t.Fatalf("missing exceptional edge 0→2; succs(0)=%v", g.Succs(0))
	}
	if !g.IsExceptionalEdge(0, 2) {
		t.Error("edge 0→2 should be flagged exceptional")
	}
	if g.IsExceptionalEdge(0, 1) {
		t.Error("fallthrough edge flagged exceptional")
	}
}

func TestThrowRoutesToHandlerOrExit(t *testing.T) {
	// throw outside any trap goes to exit.
	b := jimple.NewBody()
	e := b.Local("e", "java.lang.RuntimeException")
	b.New(e, "java.lang.RuntimeException")
	b.Throw(e)
	m, err := b.Build(jimple.Sig{Class: "t.T", Name: "g", Ret: jimple.TypeVoid}, true)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	g := New(nil, m)
	throwIdx := 2
	succs := g.Succs(throwIdx)
	if len(succs) != 1 || succs[0] != g.Exit() {
		t.Errorf("uncaught throw should go to exit; succs=%v", succs)
	}
}

func TestReachable(t *testing.T) {
	// Code after an unconditional return is unreachable.
	b := jimple.NewBody()
	x := b.Local("x", jimple.TypeInt)
	b.Return(nil)
	b.Assign(x, jimple.IntConst{V: 1})
	b.Return(nil)
	m, err := b.Build(jimple.Sig{Class: "t.T", Name: "h", Ret: jimple.TypeVoid}, true)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	g := New(nil, m)
	r := g.Reachable()
	if !r[0] || r[1] || r[2] {
		t.Errorf("reachability wrong: %v", r)
	}
}

// Property: in any random linear chain with one backward goto, every node
// in the loop body is dominated by the loop head.
func TestQuickLoopDomination(t *testing.T) {
	f := func(rawLen uint8, rawBack uint8) bool {
		n := int(rawLen%8) + 3 // chain length 3..10
		b := jimple.NewBody()
		x := b.Local("x", jimple.TypeInt)
		labels := make([]*jimple.Label, n)
		for i := range labels {
			labels[i] = b.NewLabel()
		}
		headIdx := int(rawBack) % (n - 1)
		done := b.NewLabel()
		for i := 0; i < n; i++ {
			b.Bind(labels[i])
			b.Assign(x, jimple.IntConst{V: int64(i)})
		}
		// Conditional back edge to headIdx, then exit.
		b.If(jimple.BinExpr{Op: jimple.OpLT, L: x, R: jimple.IntConst{V: 100}}, labels[headIdx])
		b.Bind(done)
		b.Return(nil)
		m, err := b.Build(jimple.Sig{Class: "t.T", Name: "q", Ret: jimple.TypeVoid}, true)
		if err != nil {
			return false
		}
		g := New(nil, m)
		idom := g.Dominators()
		for _, l := range g.NaturalLoops() {
			for _, node := range l.Body {
				if !Dominates(idom, l.Head, node) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

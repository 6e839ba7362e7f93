package dataflow

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/apk"
	"repro/internal/cfg"
	"repro/internal/corpus"
	"repro/internal/jimple"
)

// kernelInputs returns the containers the kernel differential runs over:
// the golden apps, the 285-app corpus at seed 2016, and the large-apps
// draw (64 corpus apps, each padded with 200 + [0, 200) inert classes,
// as perfbench's large-apps workload builds them).
func kernelInputs(t *testing.T) map[string][][]byte {
	t.Helper()
	encode := func(apps []*apk.App) [][]byte {
		out := make([][]byte, len(apps))
		for i, app := range apps {
			data, err := apk.Encode(app)
			if err != nil {
				t.Fatal(err)
			}
			out[i] = data
		}
		return out
	}
	goldens, err := corpus.BuildGoldens()
	if err != nil {
		t.Fatal(err)
	}
	const seed, draw, padMin, padSpan = 2016, 64, 200, 200
	gen, err := corpus.GenerateCorpus(seed)
	if err != nil {
		t.Fatal(err)
	}
	apps := make([]*apk.App, len(gen))
	for i, ca := range gen {
		apps[i] = ca.App
	}
	in := map[string][][]byte{"goldens": encode(goldens), "corpus": encode(apps)}
	if testing.Short() {
		return in
	}
	large, err := corpus.GenerateCorpus(seed)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	drawn := rng.Perm(len(large))[:draw]
	order := rng.Perm(draw)
	padded := make([]*apk.App, draw)
	for j, i := range drawn {
		corpus.AddPadding(large[i].App, padMin+order[j]*padSpan/draw)
		padded[j] = large[i].App
	}
	in["large-apps"] = encode(padded)
	return in
}

// TestKernelDifferential holds the per-method kernels to their reference
// implementations (kernelref_test.go) on every bodied method of the
// goldens, the corpus and the large-apps draw, decoded as a scan decodes
// them: successor and predecessor order, exceptional flags, dominators
// and post-dominators, natural loops, control dependences, reaching
// definitions for every (statement, local) pair, and the feasibility-
// pruned graph. Each method runs twice: on fresh scratches, and on a pair
// of scratches the previous method's kernels were carved from and that
// were then reset — filled with junk, in a test binary — as a scan's end
// resets them.
func TestKernelDifferential(t *testing.T) {
	var cs cfg.Scratch
	var ds Scratch
	for name, containers := range kernelInputs(t) {
		methods := 0
		for i, data := range containers {
			app, err := apk.DecodeLazy(data)
			if err != nil {
				t.Fatalf("%s app %d: %v", name, i, err)
			}
			if err := app.Lazy.MaterializeAll(); err != nil {
				t.Fatalf("%s app %d: %v", name, i, err)
			}
			for _, c := range app.Program.Classes() {
				for _, m := range c.Methods {
					if !m.HasBody() {
						continue
					}
					methods++
					if err := diffKernels(m, nil, nil); err != nil {
						t.Fatalf("%s app %d, %s: %v", name, i, m.Sig.Key(), err)
					}
					if err := diffKernels(m, &cs, &ds); err != nil {
						t.Fatalf("%s app %d, %s, on a recycled scratch: %v", name, i, m.Sig.Key(), err)
					}
					cs.Reset()
					ds.Reset()
				}
			}
		}
		if methods == 0 {
			t.Fatalf("%s: no bodied method", name)
		}
		t.Logf("%s: %d apps, %d bodied methods agree", name, len(containers), methods)
	}
}

// TestKernelDifferentialShapes runs the differential over hand-built
// bodies the corpus does not produce: overlapping traps, a throw inside
// nested handlers, self loops, nested loops sharing a header, dead code
// and a body wider than one bitset word.
func TestKernelDifferentialShapes(t *testing.T) {
	for _, m := range kernelShapes(t) {
		if err := diffKernels(m, nil, nil); err != nil {
			t.Errorf("%s: %v", m.Sig.Name, err)
		}
	}
}

func kernelShapes(t *testing.T) []*jimple.Method {
	t.Helper()
	var out []*jimple.Method
	build := func(name string, fill func(b *jimple.BodyBuilder)) {
		b := jimple.NewBody()
		fill(b)
		m, err := b.Build(jimple.Sig{Class: "t.K", Name: name, Ret: jimple.TypeVoid}, true)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out = append(out, m)
	}
	call := jimple.Sig{Class: "t.K", Name: "mayThrow", Ret: jimple.TypeInt}
	build("traps", func(b *jimple.BodyBuilder) {
		x := b.Local("x", jimple.TypeInt)
		e := b.Local("e", "java.io.IOException")
		b0, b1, e0, e1, h0, h1 := b.NewLabel(), b.NewLabel(), b.NewLabel(), b.NewLabel(), b.NewLabel(), b.NewLabel()
		done := b.NewLabel()
		b.Bind(b0)
		b.InvokeAssign(x, jimple.InvokeStatic, "", call)
		b.Bind(b1)
		b.If(jimple.BinExpr{Op: jimple.OpEQ, L: x, R: jimple.IntConst{V: 0}}, h1)
		b.Throw(e)
		b.Bind(e0)
		b.Goto(done)
		b.Bind(e1)
		b.Bind(h0)
		b.Assign(e, jimple.CaughtExRef{})
		b.Assign(x, jimple.IntConst{V: 1})
		b.Goto(b0)
		b.Bind(h1)
		b.Assign(e, jimple.CaughtExRef{})
		b.Throw(e)
		b.Bind(done)
		b.Return(nil)
		b.TrapRegion(b0, e0, h0, "java.io.IOException")
		b.TrapRegion(b1, e1, h1, "java.lang.Exception")
		b.TrapRegion(b0, e1, h0, "java.lang.Throwable")
	})
	build("loops", func(b *jimple.BodyBuilder) {
		x := b.Local("x", jimple.TypeInt)
		y := b.Local("y", jimple.TypeInt)
		head, inner, self, out := b.NewLabel(), b.NewLabel(), b.NewLabel(), b.NewLabel()
		b.Assign(x, jimple.IntConst{V: 0})
		b.Bind(head)
		b.Assign(y, x)
		b.Bind(inner)
		b.Assign(y, jimple.BinExpr{Op: jimple.OpAdd, L: y, R: jimple.IntConst{V: 1}})
		b.If(jimple.BinExpr{Op: jimple.OpLT, L: y, R: jimple.IntConst{V: 10}}, inner)
		b.Bind(self)
		b.If(jimple.BinExpr{Op: jimple.OpEQ, L: y, R: jimple.IntConst{V: 3}}, self)
		b.If(jimple.BinExpr{Op: jimple.OpLT, L: x, R: jimple.IntConst{V: 5}}, head)
		b.If(jimple.BinExpr{Op: jimple.OpGT, L: x, R: jimple.IntConst{V: 7}}, head)
		b.If(jimple.IntConst{V: 0}, out)
		b.Goto(head)
		b.Bind(out)
		b.Return(nil)
		b.Assign(x, jimple.IntConst{V: 9}) // dead
		b.Return(nil)
	})
	build("wide", func(b *jimple.BodyBuilder) {
		x := b.Local("x", jimple.TypeInt)
		join := b.NewLabel()
		for i := 0; i < 150; i++ {
			b.Assign(x, jimple.IntConst{V: int64(i)})
			if i%7 == 3 {
				b.If(jimple.BinExpr{Op: jimple.OpEQ, L: x, R: jimple.IntConst{V: int64(i)}}, join)
			}
		}
		b.Bind(join)
		b.Return(nil)
	})
	return out
}

// diffKernels compares every kernel on m, carved from cs and ds (nil:
// fresh scratches), with its reference.
func diffKernels(m *jimple.Method, cs *cfg.Scratch, ds *Scratch) error {
	g, r := cfg.New(cs, m), refNew(m)
	if err := diffGraph(g, r); err != nil {
		return fmt.Errorf("cfg: %w", err)
	}
	if got, want := g.Dominators(), r.dominators(); !slices.Equal(got, want) {
		return fmt.Errorf("idom %v, want %v", got, want)
	}
	if got, want := g.PostDominators(), r.postDominators(); !slices.Equal(got, want) {
		return fmt.Errorf("ipdom %v, want %v", got, want)
	}
	idom := g.Dominators()
	if err := diffLoops(g.NaturalLoopsWith(idom), r.naturalLoopsWith(idom), g.NumNodes()); err != nil {
		return err
	}
	deps, refDeps := g.ControlDeps(), r.controlDeps()
	for u := 0; u < g.NumNodes(); u++ {
		var want []int
		for b := range refDeps[u] {
			want = append(want, b)
		}
		sort.Ints(want)
		if !slices.Equal(deps[u], want) {
			return fmt.Errorf("control deps of %d: %v, want %v", u, deps[u], want)
		}
	}
	rd, refRD := NewReachDefs(ds, g), newRefReachDefs(r)
	locals := append(slices.Clone(g.Locals()), "absent-local")
	for stmt := 0; stmt < g.NumNodes(); stmt++ {
		for _, l := range locals {
			if got, want := rd.DefsReaching(stmt, l), refRD.defsReaching(stmt, l); !slices.Equal(got, want) {
				return fmt.Errorf("DefsReaching(%d, %s) = %v, want %v", stmt, l, got, want)
			}
		}
	}
	for i := range m.Body {
		if got, want := rd.DefOfStmt(i), refRD.defAt[i]; got != want {
			return fmt.Errorf("DefOfStmt(%d) = %q, want %q", i, got, want)
		}
	}
	dead := InfeasibleEdges(g, NewConstProp(rd))
	fg, rf := g.WithoutEdges(dead), r.withoutEdges(dead)
	if err := diffGraph(fg, rf); err != nil {
		return fmt.Errorf("feasible graph (dropping %v): %w", dead, err)
	}
	if got, want := fg.Dominators(), rf.dominators(); !slices.Equal(got, want) {
		return fmt.Errorf("feasible idom %v, want %v", got, want)
	}
	return nil
}

func diffGraph(g *cfg.Graph, r *refGraph) error {
	if g.NumNodes() != r.numNodes() {
		return fmt.Errorf("%d nodes, want %d", g.NumNodes(), r.numNodes())
	}
	for u := 0; u < g.NumNodes(); u++ {
		if !slices.Equal(g.Succs(u), r.succs[u]) {
			return fmt.Errorf("succs of %d: %v, want %v", u, g.Succs(u), r.succs[u])
		}
		if !slices.Equal(g.Preds(u), r.preds[u]) {
			return fmt.Errorf("preds of %d: %v, want %v", u, g.Preds(u), r.preds[u])
		}
		for v := 0; v < g.NumNodes(); v++ {
			if got, want := g.IsExceptionalEdge(u, v), r.exceptionalEdge[[2]int{u, v}]; got != want {
				return fmt.Errorf("IsExceptionalEdge(%d, %d) = %v, want %v", u, v, got, want)
			}
		}
	}
	return nil
}

func diffLoops(got []*cfg.Loop, want []*refLoop, n int) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d loops, want %d", len(got), len(want))
	}
	for i, l := range got {
		w := want[i]
		var body []int
		for u := range w.Body {
			body = append(body, u)
		}
		sort.Ints(body)
		if l.Head != w.Head || !slices.Equal(l.Body, body) || !slices.Equal(l.BackEdges, w.BackEdges) {
			return fmt.Errorf("loop %d: head %d body %v back %v, want head %d body %v back %v",
				i, l.Head, l.Body, l.BackEdges, w.Head, body, w.BackEdges)
		}
		for u := -1; u <= n; u++ {
			if l.Contains(u) != w.Body[u] {
				return fmt.Errorf("loop %d: Contains(%d) = %v", i, u, l.Contains(u))
			}
		}
	}
	return nil
}

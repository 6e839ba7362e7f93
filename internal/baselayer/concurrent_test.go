package baselayer_test

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/apimodel"
	"repro/internal/apk"
	"repro/internal/baselayer"
	"repro/internal/checkers"
	"repro/internal/corpus"
	"repro/internal/hierarchy"
	"repro/internal/interp"
	"repro/internal/jimple"
	"repro/internal/report"
)

// baseState is everything about the shared layer a scan could disturb.
type baseState struct {
	classes, bodiedClasses int
	index                  hierarchy.IndexSizes
}

func snapshot(l *baselayer.Layer) baseState {
	return baseState{
		classes:       l.Program().NumClasses(),
		bodiedClasses: l.Graph().NumClasses(),
		index:         l.Hierarchy().IndexSizes(),
	}
}

// TestConcurrentScansShareBase scans different apps at once through the
// shared base layer (run it under -race): every report must match a
// sequential scan of the same app, and the base's class count and index
// sizes — dispatch memo included — must be unchanged afterwards.
func TestConcurrentScansShareBase(t *testing.T) {
	members, err := corpus.GenerateCorpus(2016)
	if err != nil {
		t.Fatal(err)
	}
	n := 48
	if testing.Short() {
		n = 12
	}
	members = members[:n]
	reg := apimodel.NewRegistry()
	opts := checkers.Options{Workers: 1}

	layer := baselayer.Get()
	before := snapshot(layer)

	// scan runs both consumers of the base: the static pipeline, over its
	// own lazy open of the app's container, and the dynamic replayer
	// (interp.RunApp overlays the app through NewReplayer).
	containers := make([][]byte, n)
	for i, m := range members {
		if containers[i], err = apk.Encode(m.App); err != nil {
			t.Fatal(err)
		}
	}
	scan := func(i int, m *corpus.CorpusApp) (string, int) {
		app, err := apk.DecodeLazy(containers[i])
		if err != nil {
			panic(err)
		}
		text := report.RenderAll(checkers.Analyze(app, reg, opts).Reports)
		return text, len(interp.RunApp(m.App, interp.NetOffline, 1).Runs)
	}
	wantText, wantRuns := make([]string, n), make([]int, n)
	for i, m := range members {
		wantText[i], wantRuns[i] = scan(i, m)
	}

	gotText, gotRuns := make([]string, n), make([]int, n)
	var wg sync.WaitGroup
	for i, m := range members {
		wg.Add(1)
		go func(i int, m *corpus.CorpusApp) {
			defer wg.Done()
			gotText[i], gotRuns[i] = scan(i, m)
		}(i, m)
	}
	wg.Wait()

	for i, m := range members {
		if gotText[i] != wantText[i] {
			t.Errorf("%s: concurrent scan report differs from the sequential one", m.Name)
		}
		if gotRuns[i] != wantRuns[i] {
			t.Errorf("%s: concurrent replay ran %d entries, sequential %d", m.Name, gotRuns[i], wantRuns[i])
		}
	}
	if after := snapshot(layer); after != before {
		t.Errorf("shared base changed under concurrent scans: %+v -> %+v", before, after)
	}
}

// TestConcurrentFirstUseOfOneOverlay starts many goroutines on one fresh
// overlay of a lazily opened app at once, as the pipeline's parallel
// stages share theirs (run it under -race): their first LookupMethod,
// SubtypesOf, IsSubtype and Dispatch calls race to build the overlay's
// per-class method indexes and its dispatch memo, and their first Class,
// OwnClass and Classes calls race to build the same classes. Every answer must equal the flat
// reference, and the shared base's index sizes must be unchanged.
func TestConcurrentFirstUseOfOneOverlay(t *testing.T) {
	const goroutines = 8
	members, err := corpus.GenerateCorpus(2016)
	if err != nil {
		t.Fatal(err)
	}
	app := members[0].App
	corpus.AddPadding(app, 300)
	data, err := apk.Encode(app)
	if err != nil {
		t.Fatal(err)
	}
	open := func() *jimple.Program {
		lazy, err := apk.DecodeLazy(data)
		if err != nil {
			t.Fatal(err)
		}
		return lazy.Program
	}
	layer := baselayer.Get()
	before := snapshot(layer)

	// The reference is a second lazy open, flattened: Merge decodes every
	// class's members, so it holds the eager program with its bodies
	// stripped, which the first check below confirms. The two programs
	// share no pointer, so methods are named by key.
	refProg := open()
	flat := flatHierarchy(refProg)
	for _, c := range app.Program.Classes() {
		if got, want := classView(refProg.Class(c.Name)), classView(c); got != want {
			t.Fatalf("lazily opened class differs from the eager one:\nlazy:  %s\neager: %s", got, want)
		}
	}

	// The queries: every own class and the types it names, a few base
	// types, the subsignatures the app declares and calls, and the app's
	// invokes. Each answer is computed once on the flat reference.
	nameSet := map[string]bool{jimple.TypeObject: true, "android.app.Activity": true, "com.unknown.Phantom": true}
	ownSet := map[string]bool{}
	subsigSet := map[string]bool{"neverDeclared()void": true}
	var invokes []jimple.InvokeExpr
	for _, c := range app.Program.Classes() {
		nameSet[c.Name], ownSet[c.Name] = true, true
		if c.Super != "" {
			nameSet[c.Super] = true
		}
		for _, i := range c.Interfaces {
			nameSet[i] = true
		}
		for _, m := range c.Methods {
			subsigSet[m.Sig.SubSigKey()] = true
			for _, s := range m.Body {
				if inv, ok := jimple.InvokeOf(s); ok {
					invokes = append(invokes, inv)
					subsigSet[inv.Callee.SubSigKey()] = true
				}
			}
		}
	}
	names, subsigs := sortedKeys(nameSet), sortedKeys(subsigSet)
	type query struct {
		desc string
		ask  func(h *hierarchy.Hierarchy) string
	}
	queries := []query{{"Classes()", func(h *hierarchy.Hierarchy) string {
		var out []string
		for _, c := range h.Program().Classes() {
			out = append(out, classView(c))
		}
		return strings.Join(out, "\n")
	}}}
	supers := []string{jimple.TypeObject, "android.app.Activity", "java.lang.Runnable", app.Program.Classes()[0].Name}
	for _, a := range names {
		queries = append(queries, query{"SubtypesOf(" + a + ")", func(h *hierarchy.Hierarchy) string {
			return fmt.Sprint(h.SubtypesOf(a))
		}}, query{"Class(" + a + ")", func(h *hierarchy.Hierarchy) string {
			return classView(h.Program().Class(a))
		}})
		if ownSet[a] {
			queries = append(queries, query{"OwnClass(" + a + ")", func(h *hierarchy.Hierarchy) string {
				if h.Base() == nil {
					// The flat reference has no own layer: every class is its own.
					return classView(h.Program().Class(a))
				}
				return classView(h.Program().OwnClass(a))
			}})
		}
		for _, b := range supers {
			queries = append(queries, query{"IsSubtype(" + a + ", " + b + ")", func(h *hierarchy.Hierarchy) string {
				return fmt.Sprint(h.IsSubtype(a, b))
			}})
		}
		for _, s := range subsigs {
			queries = append(queries, query{"LookupMethod(" + a + ", " + s + ")", func(h *hierarchy.Hierarchy) string {
				return methodView(h.LookupMethod(a, s))
			}})
		}
	}
	for _, inv := range invokes {
		queries = append(queries, query{"Dispatch(" + inv.Callee.Key() + ")", func(h *hierarchy.Hierarchy) string {
			var out []string
			for _, m := range h.Dispatch(inv, inv.Callee.SubSigKey()) {
				out = append(out, methodView(m))
			}
			return strings.Join(out, " ")
		}})
	}
	want := make([]string, len(queries))
	for i, q := range queries {
		want[i] = q.ask(flat)
	}

	over := layer.Overlay(open())
	start := make(chan struct{})
	errs := make(chan error, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			// Goroutines start in pairs at spread offsets: each pair
			// races on the same first uses, and the pairs between them
			// cover every query's first use early.
			off := (g / 2) * len(queries) / (goroutines / 2)
			for k := range queries {
				i := (k + off) % len(queries)
				if got := queries[i].ask(over); got != want[i] {
					errs <- fmt.Errorf("goroutine %d: %s = %s, flat %s", g, queries[i].desc, got, want[i])
					return
				}
			}
		}(g)
	}
	close(start)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if after := snapshot(layer); after != before {
		t.Errorf("shared base changed under concurrent first use: %+v -> %+v", before, after)
	}
}

// classView renders a class's header and members, bodies left out.
func classView(c *jimple.Class) string {
	if c == nil {
		return "<nil>"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s extends %q implements %v iface=%t abstract=%t;", c.Name, c.Super, c.Interfaces, c.IsIface, c.Abstract)
	for _, f := range c.Fields {
		fmt.Fprintf(&b, " field %s %s static=%t;", f.Type, f.Name, f.Static)
	}
	for _, m := range c.Methods {
		b.WriteString(" " + methodView(m) + ";")
	}
	return b.String()
}

// methodView renders a method's header, its body left out.
func methodView(m *jimple.Method) string {
	if m == nil {
		return "<nil>"
	}
	return fmt.Sprintf("%s static=%t abstract=%t", m.Sig.Key(), m.Static, m.Abstract)
}

package callgraph

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/android"
	"repro/internal/hierarchy"
	"repro/internal/jimple"
)

const testApp = `class com.app.Main extends android.app.Activity {
  method onCreate(android.os.Bundle)void {
    local self com.app.Main
    local v android.view.View
    local l com.app.Main$Click
    self = this com.app.Main
    v = virtualinvoke self android.app.Activity.findViewById(int)android.view.View 7
    l = new com.app.Main$Click
    specialinvoke l com.app.Main$Click.<init>()void
    virtualinvoke v android.view.View.setOnClickListener(android.view.View$OnClickListener)void l
    virtualinvoke self com.app.Main.helper()void
    return
  }
  method helper()void {
    local t com.app.Main$Task
    t = new com.app.Main$Task
    specialinvoke t com.app.Main$Task.<init>()void
    virtualinvoke t android.os.AsyncTask.execute()void
    return
  }
}
class com.app.Main$Click extends java.lang.Object implements android.view.View$OnClickListener {
  method <init>()void {
    return
  }
  method onClick(android.view.View)void {
    local self com.app.Main$Click
    self = this com.app.Main$Click
    virtualinvoke self com.app.Main$Click.doWork()void
    return
  }
  method doWork()void {
    return
  }
}
class com.app.Main$Task extends android.os.AsyncTask {
  method <init>()void {
    return
  }
  method doInBackground()void {
    staticinvoke com.app.Net.fetch()void
    return
  }
  method onPostExecute()void {
    return
  }
}
class com.app.Net extends java.lang.Object {
  method static fetch()void {
    return
  }
}
class com.app.Sync extends android.app.Service {
  method onStartCommand(android.content.Intent,int,int)int {
    staticinvoke com.app.Net.fetch()void
    return 0
  }
}`

func buildGraph(t *testing.T) *Graph {
	t.Helper()
	prog := jimple.MustParse(testApp)
	prog.Merge(android.Framework())
	if err := prog.Validate(); err != nil {
		t.Fatalf("test app invalid: %v", err)
	}
	man := &android.Manifest{
		Package:    "com.app",
		Activities: []string{"com.app.Main"},
		Services:   []string{"com.app.Sync"},
	}
	man.Normalize()
	return Build(hierarchy.New(prog), man)
}

func entryKeys(g *Graph) map[string]Entry {
	out := make(map[string]Entry)
	for _, e := range g.Entries() {
		out[e.Method.Sig.Key()] = e
	}
	return out
}

func TestEntryDiscovery(t *testing.T) {
	g := buildGraph(t)
	es := entryKeys(g)
	onCreate := "com.app.Main.onCreate(android.os.Bundle)void"
	onStart := "com.app.Sync.onStartCommand(android.content.Intent,int,int)int"
	onClick := "com.app.Main$Click.onClick(android.view.View)void"
	for _, k := range []string{onCreate, onStart, onClick} {
		if _, ok := es[k]; !ok {
			t.Errorf("missing entry point %s (have %d entries)", k, len(es))
		}
	}
	if _, ok := es["com.app.Main.helper()void"]; ok {
		t.Error("helper must not be an entry point")
	}
	if e := es[onCreate]; e.Kind != android.KindActivity || !e.Declared {
		t.Errorf("onCreate entry misclassified: %+v", e)
	}
	if e := es[onStart]; e.Kind != android.KindService || !e.Declared {
		t.Errorf("onStartCommand entry misclassified: %+v", e)
	}
	// Inner listener attributes to the outer Activity.
	if e := es[onClick]; e.Kind != android.KindActivity || e.Component != "com.app.Main" {
		t.Errorf("listener entry misattributed: %+v", e)
	}
}

func TestDirectAndAsyncEdges(t *testing.T) {
	g := buildGraph(t)
	onCreateKey := "com.app.Main.onCreate(android.os.Bundle)void"
	var sawHelper, sawOnClickAsync bool
	for _, e := range g.OutEdges(onCreateKey) {
		if e.Callee.Name == "helper" && e.Kind == EdgeCall {
			sawHelper = true
		}
		if e.Callee.Name == "onClick" && e.Kind == EdgeAsync {
			sawOnClickAsync = true
		}
	}
	if !sawHelper {
		t.Error("missing direct edge onCreate→helper")
	}
	if !sawOnClickAsync {
		t.Error("missing async edge onCreate→onClick via setOnClickListener")
	}

	helperKey := "com.app.Main.helper()void"
	var sawDoInBackground, sawOnPost bool
	for _, e := range g.OutEdges(helperKey) {
		if e.Kind != EdgeAsync {
			continue
		}
		switch e.Callee.Name {
		case "doInBackground":
			sawDoInBackground = true
		case "onPostExecute":
			sawOnPost = true
		}
	}
	if !sawDoInBackground || !sawOnPost {
		t.Errorf("AsyncTask.execute edges missing: doInBackground=%v onPostExecute=%v",
			sawDoInBackground, sawOnPost)
	}
}

func TestReachability(t *testing.T) {
	g := buildGraph(t)
	onCreate := jimple.Sig{Class: "com.app.Main", Name: "onCreate", Params: []string{android.ClassBundle}, Ret: jimple.TypeVoid}
	reach := g.ReachableFrom(onCreate)
	fetchKey := "com.app.Net.fetch()void"
	if !reach[fetchKey] {
		t.Error("fetch should be reachable from onCreate via AsyncTask")
	}
	if !reach["com.app.Main$Click.doWork()void"] {
		t.Error("doWork should be reachable from onCreate via the registered listener")
	}
	var reaching []string
	for _, e := range g.Entries() {
		if g.ReachableFrom(e.Method.Sig)[fetchKey] {
			reaching = append(reaching, e.Method.Sig.Key())
		}
	}
	if len(reaching) != 2 {
		t.Errorf("entries reaching fetch: got %v", reaching)
	}
}

// TestBuildOrderDeterministic builds the same program twice and requires
// identical edge lists in both directions and identical call stacks: edge
// order follows method ids, which follow the classes, not map iteration.
func TestBuildOrderDeterministic(t *testing.T) {
	render := func(g *Graph) []string {
		var out []string
		for id := int32(0); id < int32(g.NumIDs()); id++ {
			for _, e := range g.Out(id) {
				out = append(out, fmt.Sprintf("out %s@%d-%s->%s", e.Caller.Key(), e.Site, e.Kind, e.Callee.Key()))
			}
			for _, e := range g.InEdges(g.Key(id)) {
				out = append(out, fmt.Sprintf("in %s@%d-%s->%s", e.Caller.Key(), e.Site, e.Kind, e.Callee.Key()))
			}
		}
		for i, e := range g.Entries() {
			if g.Key(g.EntryID(i)) != e.Method.Sig.Key() {
				t.Fatalf("entry %d: id names %s, entry is %s", i, g.Key(g.EntryID(i)), e.Method.Sig.Key())
			}
			for id := int32(0); id < int32(g.NumIDs()); id++ {
				for _, f := range g.CallStackIDs(g.EntryID(i), id) {
					if f.Key != f.Method.Key() {
						t.Fatalf("frame key %s for method %s", f.Key, f.Method.Key())
					}
					out = append(out, fmt.Sprintf("stack %d %s %s@%d", i, g.Key(id), f.Key, f.Site))
				}
			}
		}
		return out
	}
	first := render(buildGraph(t))
	if len(first) == 0 {
		t.Fatal("empty rendering")
	}
	for run := 0; run < 5; run++ {
		if again := render(buildGraph(t)); !reflect.DeepEqual(first, again) {
			t.Fatalf("build %d differs:\n%v\nvs\n%v", run, first, again)
		}
	}
}

func TestCallStack(t *testing.T) {
	g := buildGraph(t)
	onCreate := jimple.Sig{Class: "com.app.Main", Name: "onCreate", Params: []string{android.ClassBundle}, Ret: jimple.TypeVoid}
	stack := g.CallStack(onCreate, "com.app.Net.fetch()void")
	if stack == nil {
		t.Fatal("no call stack found")
	}
	if stack[0].Method.Key() != onCreate.Key() {
		t.Errorf("stack should start at the entry, got %s", stack[0].Method.Key())
	}
	last := stack[len(stack)-1]
	if last.Method.Key() != "com.app.Net.fetch()void" || last.Site != -1 {
		t.Errorf("stack should end at the target: %+v", last)
	}
	// Path: onCreate → helper → doInBackground → fetch (4 frames).
	if len(stack) != 4 {
		keys := make([]string, len(stack))
		for i, f := range stack {
			keys[i] = f.Method.Key()
		}
		t.Errorf("stack length %d: %v", len(stack), keys)
	}
	if g.CallStack(onCreate, "no.Such.method()void") != nil {
		t.Error("unreachable target should yield nil stack")
	}
}

func TestDeclaredDispatchAblation(t *testing.T) {
	prog := jimple.MustParse(testApp)
	prog.Merge(android.Framework())
	h := hierarchy.New(prog)
	man := &android.Manifest{Package: "com.app"}
	full := BuildWith(h, man, Options{})
	decl := BuildWith(h, man, Options{DeclaredDispatchOnly: true})
	if decl.NumEdges() > full.NumEdges() {
		t.Errorf("declared-only dispatch found more edges (%d) than CHA (%d)",
			decl.NumEdges(), full.NumEdges())
	}
}

func TestGraphCounts(t *testing.T) {
	g := buildGraph(t)
	if g.NumMethods() == 0 || g.NumEdges() == 0 {
		t.Fatalf("degenerate graph: %d methods, %d edges", g.NumMethods(), g.NumEdges())
	}
	fetchKey := "com.app.Net.fetch()void"
	if len(g.InEdges(fetchKey)) != 2 {
		t.Errorf("InEdges(fetch): %v", g.InEdges(fetchKey))
	}
	if g.Method(fetchKey) == nil {
		t.Error("Method lookup failed")
	}
}

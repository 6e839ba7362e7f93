package baselayer_test

import (
	"fmt"
	"sort"
	"testing"

	"repro/internal/android"
	"repro/internal/apimodel"
	"repro/internal/apk"
	"repro/internal/baselayer"
	"repro/internal/callgraph"
	"repro/internal/corpus"
	"repro/internal/hierarchy"
	"repro/internal/jimple"
)

// shadowApp redefines framework classes the way an app bundling its own
// copy of a framework or support class would: android.app.Service gets a
// different superclass (Activity instead of Context), so the framework's
// subclasses of Service change kind under it; android.app.IntentService
// leaves the Service subtree for BroadcastReceiver's, so the base's
// subtype lists must drop it; android.content.Context gains an
// interface and a bodied method that becomes a dispatch target; and
// android.os.AsyncTask is redefined without its framework methods, so a
// lookup must not fall through to the shadowed definition.
const shadowApp = `class android.app.Service extends android.app.Activity {
  method onCreate()void {
    return
  }
}
class android.app.IntentService extends android.content.BroadcastReceiver {
  method onReceive(android.content.Context,android.content.Intent)void {
    return
  }
}
class android.content.Context extends java.lang.Object implements java.lang.Runnable {
  method getSystemService(java.lang.String)java.lang.Object {
    local r java.lang.Object
    r = null
    return r
  }
  method run()void {
    return
  }
}
class android.os.AsyncTask extends java.lang.Thread {
  method cancel(boolean)boolean {
    return 0
  }
}
class com.shadow.Main extends android.app.Service {
  method onCreate(android.os.Bundle)void {
    local self com.shadow.Main
    local o java.lang.Object
    local t com.shadow.Task
    local r java.lang.Runnable
    self = this com.shadow.Main
    o = virtualinvoke self android.content.Context.getSystemService(java.lang.String)java.lang.Object "connectivity"
    virtualinvoke self android.app.Service.onCreate()void
    t = new com.shadow.Task
    specialinvoke t com.shadow.Task.<init>()void
    virtualinvoke t android.os.AsyncTask.execute()void
    r = self
    interfaceinvoke r java.lang.Runnable.run()void
    return
  }
}
class com.shadow.Sync extends android.app.IntentService {
  method onHandleIntent(android.content.Intent)void {
    local self com.shadow.Sync
    self = this com.shadow.Sync
    virtualinvoke self android.content.Context.getSystemService(java.lang.String)java.lang.Object "wifi"
    return
  }
  method onStartCommand(android.content.Intent,int,int)int {
    return 0
  }
}
class com.shadow.Task extends android.os.AsyncTask {
  method <init>()void {
    return
  }
  method doInBackground()void {
    return
  }
  method run()void {
    return
  }
}`

// testApp is one app under differential test.
type testApp struct {
	name     string
	prog     *jimple.Program
	manifest *android.Manifest
}

func shadowFixture() testApp {
	man := &android.Manifest{
		Package:    "com.shadow",
		Activities: []string{"com.shadow.Main"},
		Services:   []string{"com.shadow.Sync"},
	}
	man.Normalize()
	return testApp{name: "shadow-fixture", prog: jimple.MustParse(shadowApp), manifest: man}
}

// flatHierarchy is the reference: the app merged over the framework and
// stubs into one flat program, indexed whole.
func flatHierarchy(app *jimple.Program) *hierarchy.Hierarchy {
	prog := jimple.NewProgram()
	prog.Merge(app)
	prog.Merge(android.Framework())
	prog.Merge(apimodel.Stubs())
	return hierarchy.New(prog)
}

// TestShadowFixtureShadows keeps the fixture honest: it must really
// redefine framework classes, with a different superclass for one.
func TestShadowFixtureShadows(t *testing.T) {
	app := shadowFixture()
	base := baselayer.Get().Program()
	svc := base.Class(android.ClassService)
	if svc == nil || app.prog.Class(android.ClassService).Super == svc.Super {
		t.Fatal("fixture does not redefine android.app.Service with a different super")
	}
	h := baselayer.Get().Overlay(app.prog)
	if got := h.Program().Class(android.ClassService); got != app.prog.Class(android.ClassService) {
		t.Fatal("overlay does not resolve the app's redefinition of android.app.Service")
	}
	if !h.IsSubtype("com.shadow.Main", android.ClassActivity) {
		t.Error("a Service subclass must become an Activity subtype under the redefined Service")
	}
	if h.IsSubtype(android.ClassIntentService, android.ClassService) {
		t.Error("the redefined IntentService must leave the Service subtree")
	}
}

// TestOverlayMatchesFlat is the differential contract of the frozen base
// layer: for every corpus app and for a fixture that shadows framework
// classes, the overlay program, hierarchy and call graph answer every
// query exactly as the flat merge indexed by hierarchy.New and
// callgraph.BuildWith does.
func TestOverlayMatchesFlat(t *testing.T) {
	apps := []testApp{shadowFixture()}
	members, err := corpus.GenerateCorpus(2016)
	if err != nil {
		t.Fatal(err)
	}
	if len(members) != corpus.CorpusSize {
		t.Fatalf("corpus has %d apps, want %d", len(members), corpus.CorpusSize)
	}
	for _, m := range members {
		apps = append(apps, testApp{name: m.Name, prog: m.App.Program, manifest: m.App.Manifest})
	}
	layer := baselayer.Get()
	for _, app := range apps {
		flat := flatHierarchy(app.prog)
		over := layer.Overlay(app.prog)
		if err := compareHierarchies(flat, over); err != nil {
			t.Errorf("%s: hierarchy: %v", app.name, err)
			continue
		}
		for _, opts := range []callgraph.Options{{}, {EnableICC: true}, {DeclaredDispatchOnly: true}} {
			fg := callgraph.BuildWith(flat, app.manifest, opts)
			og := layer.CallGraph(over, app.manifest, opts)
			if err := compareGraphs(fg, og); err != nil {
				t.Errorf("%s: call graph %+v: %v", app.name, opts, err)
			}
		}
	}
}

// TestOverlayMatchesFlatLazy runs the same differential on the shape a
// production scan overlays: apk.DecodeLazy opens, where only a few
// classes are materialized, every other method is bodiless, and the
// classes no lookup has reached have their members deferred. The cases
// are the shadow fixture and padded corpus apps (200–399 inert classes);
// the reference is hierarchy.New over the flat merge of the same program.
func TestOverlayMatchesFlatLazy(t *testing.T) {
	members, err := corpus.GenerateCorpus(2016)
	if err != nil {
		t.Fatal(err)
	}
	shadow := shadowFixture()
	type lazyCase struct {
		name   string
		app    *apk.App
		padded bool
	}
	cases := []lazyCase{{shadow.name, &apk.App{Program: shadow.prog, Manifest: shadow.manifest}, false}}
	pads := []int{200, 271, 333, 399}
	if testing.Short() {
		pads = pads[:1]
	}
	for i, pad := range pads {
		m := members[i*len(members)/len(pads)]
		corpus.AddPadding(m.App, pad)
		cases = append(cases, lazyCase{fmt.Sprintf("%s+pad%d", m.Name, pad), m.App, true})
	}
	layer := baselayer.Get()
	for _, tc := range cases {
		data, err := apk.Encode(tc.app)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		app, err := apk.DecodeLazy(data)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		// Materialize about four bodied classes, spread over the slots;
		// the rest stay skeletons, as outside a scan's demand closure.
		x := app.Lazy.Index()
		stride := max(2, x.NumClasses()/4)
		materialized := 0
		for slot := 0; slot < x.NumClasses(); slot += stride {
			if err := app.Lazy.Materialize(x.ClassName(int32(slot))); err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			materialized++
		}
		if materialized == 0 || materialized == x.NumClasses() {
			t.Fatalf("%s: materialized %d of %d bodied classes; want a few", tc.name, materialized, x.NumClasses())
		}
		// The overlay's graphs are built first, as a scan builds its own,
		// while the classes no lookup has reached still have their members
		// deferred; the flat reference's merge then decodes every class.
		over := layer.Overlay(app.Program)
		optsList := []callgraph.Options{{}, {EnableICC: true}, {DeclaredDispatchOnly: true}}
		graphs := make([]*callgraph.Graph, len(optsList))
		for i, opts := range optsList {
			graphs[i] = layer.CallGraph(over, app.Manifest, opts)
		}
		deferred := 0
		app.Program.EachOwnHeader(func(c *jimple.Class) {
			if c.MembersDeferred() {
				deferred++
			}
		})
		if tc.padded && deferred == 0 {
			t.Fatalf("%s: no class left deferred; the overlay graphs would not skip any", tc.name)
		}
		flat := flatHierarchy(app.Program)
		if err := compareHierarchies(flat, over); err != nil {
			t.Errorf("%s: hierarchy: %v", tc.name, err)
			continue
		}
		for i, opts := range optsList {
			fg := callgraph.BuildWith(flat, app.Manifest, opts)
			if err := compareGraphs(fg, graphs[i]); err != nil {
				t.Errorf("%s: call graph %+v: %v", tc.name, opts, err)
			}
		}
	}
}

func compareHierarchies(flat, over *hierarchy.Hierarchy) error {
	fp, op := flat.Program(), over.Program()
	if fp.NumClasses() != op.NumClasses() {
		return fmt.Errorf("NumClasses %d vs %d", fp.NumClasses(), op.NumClasses())
	}
	if fp.NumStmts() != op.NumStmts() {
		return fmt.Errorf("NumStmts %d vs %d", fp.NumStmts(), op.NumStmts())
	}
	fc, oc := fp.Classes(), op.Classes()
	for i := range fc {
		if fc[i] != oc[i] {
			return fmt.Errorf("Classes()[%d] is %s vs %s", i, fc[i].Name, oc[i].Name)
		}
	}

	// Every name a query can meet: defined classes, the phantom types they
	// reference, the base classes the app shadows, and one unknown name.
	nameSet := map[string]bool{"com.unknown.Phantom": true}
	subsigSet := map[string]bool{"neverDeclared()void": true}
	var invokes []jimple.InvokeExpr
	for _, p := range []*jimple.Program{fp, baselayer.Get().Program()} {
		for _, c := range p.Classes() {
			nameSet[c.Name] = true
			if c.Super != "" {
				nameSet[c.Super] = true
			}
			for _, i := range c.Interfaces {
				nameSet[i] = true
			}
			for _, m := range c.Methods {
				subsigSet[m.Sig.SubSigKey()] = true
			}
		}
	}
	for _, c := range fc {
		for _, m := range c.Methods {
			for _, s := range m.Body {
				if inv, ok := jimple.InvokeOf(s); ok {
					invokes = append(invokes, inv)
					nameSet[inv.Callee.Class] = true
					subsigSet[inv.Callee.SubSigKey()] = true
				}
			}
		}
	}
	names, subsigs := sortedKeys(nameSet), sortedKeys(subsigSet)

	for _, a := range names {
		if f, o := flat.SubtypesOf(a), over.SubtypesOf(a); !equalStrings(f, o) {
			return fmt.Errorf("SubtypesOf(%s) = %v vs %v", a, f, o)
		}
		if f, o := flat.Supertypes(a), over.Supertypes(a); !equalStrings(f, o) {
			return fmt.Errorf("Supertypes(%s) = %v vs %v", a, f, o)
		}
		for _, b := range names {
			if f, o := flat.IsSubtype(a, b), over.IsSubtype(a, b); f != o {
				return fmt.Errorf("IsSubtype(%s, %s) = %v vs %v", a, b, f, o)
			}
		}
		for _, s := range subsigs {
			if f, o := flat.LookupMethod(a, s), over.LookupMethod(a, s); f != o {
				return fmt.Errorf("LookupMethod(%s, %s) = %v vs %v", a, s, f, o)
			}
		}
	}
	for _, inv := range invokes {
		sub := inv.Callee.SubSigKey()
		if f, o := flat.Dispatch(inv, sub), over.Dispatch(inv, sub); !equalMethods(f, o) {
			return fmt.Errorf("Dispatch(%s) = %d vs %d targets", inv.Callee.Key(), len(f), len(o))
		}
		if f, o := flat.DeclaredDispatch(inv, sub), over.DeclaredDispatch(inv, sub); !equalMethods(f, o) {
			return fmt.Errorf("DeclaredDispatch(%s) differs", inv.Callee.Key())
		}
	}
	return nil
}

func compareGraphs(flat, over *callgraph.Graph) error {
	if flat.NumMethods() != over.NumMethods() {
		return fmt.Errorf("NumMethods %d vs %d", flat.NumMethods(), over.NumMethods())
	}
	if flat.NumEdges() != over.NumEdges() {
		return fmt.Errorf("NumEdges %d vs %d", flat.NumEdges(), over.NumEdges())
	}
	fe, oe := flat.Entries(), over.Entries()
	if len(fe) != len(oe) {
		return fmt.Errorf("%d vs %d entries", len(fe), len(oe))
	}
	for i := range fe {
		if fe[i] != oe[i] {
			return fmt.Errorf("entry %d: %+v vs %+v", i, fe[i], oe[i])
		}
	}
	var keys []string
	for _, c := range flat.H.Program().Classes() {
		for _, m := range c.Methods {
			keys = append(keys, m.Sig.Key())
		}
	}
	for _, k := range keys {
		if flat.Method(k) != over.Method(k) {
			return fmt.Errorf("Method(%s) differs", k)
		}
		if f, o := edgeStrings(flat.OutEdges(k), false), edgeStrings(over.OutEdges(k), false); !equalStrings(f, o) {
			return fmt.Errorf("OutEdges(%s) = %v vs %v", k, f, o)
		}
		if f, o := edgeStrings(flat.InEdges(k), true), edgeStrings(over.InEdges(k), true); !equalStrings(f, o) {
			return fmt.Errorf("InEdges(%s) = %v vs %v", k, f, o)
		}
	}
	return nil
}

// edgeStrings renders edges in order; in-edge order follows map iteration
// in both builds, so in-edges compare as a sorted multiset.
func edgeStrings(es []callgraph.Edge, sorted bool) []string {
	out := make([]string, len(es))
	for i, e := range es {
		out[i] = fmt.Sprintf("%s@%d-%s->%s", e.Caller.Key(), e.Site, e.Kind, e.Callee.Key())
	}
	if sorted {
		sort.Strings(out)
	}
	return out
}

func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func equalMethods(a, b []*jimple.Method) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

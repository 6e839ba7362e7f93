package baselayer_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"slices"
	"sort"
	"testing"

	"repro/internal/android"
	"repro/internal/apimodel"
	"repro/internal/apk"
	"repro/internal/baselayer"
	"repro/internal/callgraph"
	"repro/internal/corpus"
	"repro/internal/dex"
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
// classes are materialized, every other method is bodiless, and no class
// object exists for a class no lookup has reached. The cases are the
// shadow fixture, padded corpus apps (200–399 inert classes) and the
// lazy-overlay fixtures (lazyFixtures), the last with the classes a scan
// would demand materialized; the reference is hierarchy.New over the
// flat merge of the same program.
func TestOverlayMatchesFlatLazy(t *testing.T) {
	members, err := corpus.GenerateCorpus(2016)
	if err != nil {
		t.Fatal(err)
	}
	shadow := shadowFixture()
	shadowData, err := apk.Encode(&apk.App{Program: shadow.prog, Manifest: shadow.manifest})
	if err != nil {
		t.Fatal(err)
	}
	cases := []lazyCase{{name: shadow.name, data: shadowData}}
	pads := []int{200, 271, 333, 399}
	if testing.Short() {
		pads = pads[:1]
	}
	for i, pad := range pads {
		m := members[i*len(members)/len(pads)]
		corpus.AddPadding(m.App, pad)
		data, err := apk.Encode(m.App)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, lazyCase{name: fmt.Sprintf("%s+pad%d", m.Name, pad), data: data, padded: true})
	}
	cases = append(cases, lazyFixtures(t)...)
	layer := baselayer.Get()
	for _, tc := range cases {
		app, err := apk.DecodeLazy(tc.data)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		x := app.Lazy.Index()
		materialized := 0
		if tc.materialize != nil {
			if err := app.Lazy.Materialize(tc.materialize...); err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			materialized = len(tc.materialize)
		} else {
			// Materialize about four bodied classes, spread over the
			// slots; the rest stay skeletons, as outside a scan's demand
			// closure.
			stride := max(2, x.NumClasses()/4)
			for slot := 0; slot < x.NumClasses(); slot += stride {
				if err := app.Lazy.Materialize(x.ClassName(int32(slot))); err != nil {
					t.Fatalf("%s: %v", tc.name, err)
				}
				materialized++
			}
		}
		if materialized == 0 || materialized == x.NumClasses() {
			t.Fatalf("%s: materialized %d of %d bodied classes; want a few", tc.name, materialized, x.NumClasses())
		}
		// The overlay's graphs are built first, as a scan builds its own,
		// while the classes no lookup has reached are still unbuilt; the
		// flat reference's merge then builds every class.
		over := layer.Overlay(app.Program)
		optsList := []callgraph.Options{{}, {EnableICC: true}, {DeclaredDispatchOnly: true}}
		graphs := make([]*callgraph.Graph, len(optsList))
		for i, opts := range optsList {
			graphs[i] = layer.CallGraph(over, app.Manifest, opts)
		}
		built := 0
		app.Program.EachBuilt(func(*jimple.Class) { built++ })
		if tc.padded && built == app.Program.NumClasses() {
			t.Fatalf("%s: every class built; the overlay graphs would not skip any", tc.name)
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
		for _, e := range tc.wantEdges {
			if !slices.Contains(edgeStrings(graphs[0].OutEdges(e[0]), false), e[1]) {
				t.Errorf("%s: the overlay graph has no edge %s from %s", tc.name, e[1], e[0])
			}
		}
	}
}

// lazyCase is one app of TestOverlayMatchesFlatLazy: its container, and
// the classes to materialize (nil: about four, spread over the slots).
// wantEdges are (caller key, edge) pairs the overlay graph must hold.
type lazyCase struct {
	name        string
	data        []byte
	padded      bool
	materialize []string
	wantEdges   [][2]string
}

// lazyOverlaySrc is the app of the lazy-overlay fixtures. l.Main, the
// demanded component, starts an l.Impl through java.lang.Runnable. l.Impl
// declares no method — so no closure rule can demand it, and a scan never
// materializes it — but implements Runnable and inherits a bodied run()
// from the demanded l.Worker: dispatch must still reach l.Impl through the
// own layer's reverse edges and build it, or the graph loses its only
// run() target. android.app.IntentService is redefined under another
// superclass and left unbuilt, so the base's subtype list of
// android.app.Service must drop it without building it. l.Omega is renamed
// to l.Alpha in the container's string pool (lazyFixtures), so l.Alpha is
// a repeated class name whose earlier definition, an Activity, must
// vanish from every answer.
const lazyOverlaySrc = `class l.Main extends android.app.Activity {
  method onCreate(android.os.Bundle)void {
    local self l.Main
    local i l.Impl
    local r java.lang.Runnable
    self = this l.Main
    i = new l.Impl
    r = i
    interfaceinvoke r java.lang.Runnable.run()void
    return
  }
}
class l.Worker extends java.lang.Object {
  method run()void {
    return
  }
}
class l.Impl extends l.Worker implements java.lang.Runnable {
  field n int
}
class android.app.IntentService extends android.content.BroadcastReceiver {
  method abstract onHandleIntent(android.content.Intent)void
}
class l.Sync extends android.app.IntentService {
  method onReceive(android.content.Context,android.content.Intent)void {
    return
  }
}
class l.Alpha extends android.app.Activity {
  field a int
}
class l.Omega extends java.lang.Object {
  field b int
}`

// lazyFixtures returns the lazy-overlay fixtures: lazyOverlaySrc as
// written, and with l.Omega renamed to l.Alpha.
func lazyFixtures(t *testing.T) []lazyCase {
	t.Helper()
	man := &android.Manifest{Package: "l", Activities: []string{"l.Main"}, Services: []string{"l.Sync"}}
	man.Normalize()
	prog := jimple.MustParse(lazyOverlaySrc)
	data, err := apk.Encode(&apk.App{Program: prog, Manifest: man})
	if err != nil {
		t.Fatal(err)
	}
	// The dex payload is the container's last section, after its CRC-32;
	// the rename keeps its length, so only the CRC changes.
	payload := bytes.Replace(dex.Encode(prog), []byte("l.Omega"), []byte("l.Alpha"), 1)
	n := len(payload)
	repeated := bytes.Clone(data)
	copy(repeated[len(repeated)-n:], payload)
	binary.LittleEndian.PutUint32(repeated[len(repeated)-n-4:], crc32.ChecksumIEEE(payload))
	want := [][2]string{{"l.Main.onCreate(android.os.Bundle)void", "l.Main.onCreate(android.os.Bundle)void@3-call->l.Worker.run()void"}}
	materialize := []string{"l.Main", "l.Worker"}
	return []lazyCase{
		{name: "lazy-overlay", data: data, materialize: materialize, wantEdges: want},
		{name: "lazy-overlay repeated class", data: repeated, materialize: materialize, wantEdges: want},
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

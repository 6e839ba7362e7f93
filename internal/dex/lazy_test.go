package dex_test

import (
	"bytes"
	"fmt"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/apimodel"
	"repro/internal/corpus"
	"repro/internal/dex"
	"repro/internal/jimple"
)

const lazySampleSrc = `class com.app.Main extends android.app.Activity {
  method onCreate(android.os.Bundle)void {
    local self com.app.Main
    local c com.turbomanage.httpclient.BasicHttpClient
    local r com.turbomanage.httpclient.HttpResponse
    local i android.content.Intent
    self = this com.app.Main
    c = new com.turbomanage.httpclient.BasicHttpClient
    specialinvoke c com.turbomanage.httpclient.BasicHttpClient.<init>()void
    r = virtualinvoke c com.turbomanage.httpclient.BasicHttpClient.get(java.lang.String)com.turbomanage.httpclient.HttpResponse "http://example.com"
    i = new android.content.Intent
    virtualinvoke i android.content.Intent.setClassName(java.lang.String)android.content.Intent "com.app.Detail"
    virtualinvoke self android.app.Activity.startActivity(android.content.Intent)void i
    return
  }
  method helper()void {
    local x java.lang.String
    x = "s"
    return
  }
  method abstract stub(int)void
}
class com.app.Detail extends android.app.Activity {
  method onCreate(android.os.Bundle)void {
    nop
    return
  }
}`

func lazySample(t *testing.T) *jimple.Program {
	t.Helper()
	return jimple.MustParse(lazySampleSrc)
}

// membersSample is lazySample plus a class with fields, an interface and
// only bodiless methods, one of which carries a body section with no
// statement: the encoding flags it has-body, and both decoders normalize
// it to abstract. The parser cannot express that method, so it is added
// by hand.
func membersSample(t testing.TB) *jimple.Program {
	t.Helper()
	p := jimple.MustParse(lazySampleSrc + `
class com.app.Model extends java.lang.Object implements java.io.Serializable {
  field count int
  field static label java.lang.String
  method abstract size()int
}`)
	p.Class("com.app.Model").AddMethod(&jimple.Method{
		Sig:    jimple.Sig{Name: "reset", Params: []string{"int"}, Ret: "void"},
		Static: true,
		Body:   []jimple.Stmt{},
	})
	return p
}

// headerView renders a class's header and members, bodies left out: what
// a lookup in a lazily opened program must agree on with the eager
// decode.
func headerView(c *jimple.Class) string {
	if c == nil {
		return "<nil>"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s extends %q implements %v iface=%t abstract=%t;", c.Name, c.Super, c.Interfaces, c.IsIface, c.Abstract)
	for _, f := range c.Fields {
		fmt.Fprintf(&b, " field %s %s static=%t;", f.Type, f.Name, f.Static)
	}
	for _, m := range c.Methods {
		fmt.Fprintf(&b, " method %s static=%t abstract=%t;", m.Sig.Key(), m.Static, m.Abstract)
	}
	return b.String()
}

// checkLookupsMatchEager looks every class of eager up in l's program,
// the first lookup of each: no class may be built until then — the class
// count, the reverse subtype edges of every name a header uses and the
// by-name membership test build none — and the lookup must return the
// eager class with its bodies left out.
func checkLookupsMatchEager(t *testing.T, l *dex.Lazy, eager *jimple.Program) {
	t.Helper()
	p := l.Program()
	if p.NumClasses() != eager.NumClasses() {
		t.Fatalf("NumClasses = %d, eager %d", p.NumClasses(), eager.NumClasses())
	}
	subs := func(p *jimple.Program, name string) []string {
		var out []string
		p.EachOwnSub(name, func(s string) { out = append(out, s) })
		sort.Strings(out)
		return out
	}
	for _, c := range eager.Classes() {
		for _, name := range append([]string{c.Name, c.Super}, c.Interfaces...) {
			if got, want := subs(p, name), subs(eager, name); !slices.Equal(got, want) {
				t.Fatalf("EachOwnSub(%q) = %v, eager %v", name, got, want)
			}
		}
		if !p.HasOwnClass(c.Name) {
			t.Fatalf("HasOwnClass(%q) = false", c.Name)
		}
	}
	if p.HasOwnClass("no.such.Class") || p.OwnClass("no.such.Class") != nil {
		t.Fatal("a lookup of an absent class hit")
	}
	p.EachBuilt(func(c *jimple.Class) {
		t.Fatalf("%s: built before any lookup", c.Name)
	})
	for _, want := range eager.Classes() {
		if got := p.Class(want.Name); headerView(got) != headerView(want) {
			t.Fatalf("lookup differs from the eager class:\nlazy:  %s\neager: %s", headerView(got), headerView(want))
		}
	}
}

// TestLazyMaterializeAllMatchesEagerDecode: a fully materialized lazy
// program is text-identical to an eager decode of the same bytes, over
// the generated corpus.
func TestLazyMaterializeAllMatchesEagerDecode(t *testing.T) {
	apps, err := corpus.GenerateCorpus(7)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range apps[:40] {
		data := dex.Encode(a.App.Program)
		eager, err := dex.Decode(data)
		if err != nil {
			t.Fatalf("%s: Decode: %v", a.Name, err)
		}
		l, err := dex.DecodeLazy(data)
		if err != nil {
			t.Fatalf("%s: DecodeLazy: %v", a.Name, err)
		}
		if err := l.MaterializeAll(); err != nil {
			t.Fatalf("%s: MaterializeAll: %v", a.Name, err)
		}
		if jimple.Print(l.Program()) != jimple.Print(eager) {
			t.Fatalf("%s: materialized lazy program differs from eager decode", a.Name)
		}
	}
}

// TestLazySkeletonHasNoBodies: a class's members are decoded on its first
// lookup and equal the eager decode's, bodies left out; before
// materialization every method is bodiless, and classes materialize
// independently and idempotently.
func TestLazySkeletonHasNoBodies(t *testing.T) {
	data := dex.Encode(membersSample(t))
	l, err := dex.DecodeLazy(data)
	if err != nil {
		t.Fatal(err)
	}
	eager, err := dex.Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	p := l.Program()
	if p.NumClasses() != 3 {
		t.Fatalf("skeleton has %d classes, want 3", p.NumClasses())
	}
	checkLookupsMatchEager(t, l, eager)
	if m := p.Class("com.app.Model").MethodNamed("reset"); !m.Abstract || !m.Static {
		t.Fatalf("empty-body method decoded as %+v, want static and abstract", m)
	}
	for _, c := range p.Classes() {
		for _, m := range c.Methods {
			if m.HasBody() {
				t.Fatalf("%s has a body before materialization", m.Sig.Key())
			}
		}
	}
	if err := l.Materialize("com.app.Detail"); err != nil {
		t.Fatal(err)
	}
	if err := l.Materialize("com.app.Detail"); err != nil {
		t.Fatalf("re-materialize: %v", err)
	}
	if m := p.Class("com.app.Detail").MethodNamed("onCreate"); !m.HasBody() {
		t.Fatal("materialized class still bodiless")
	}
	if m := p.Class("com.app.Main").MethodNamed("onCreate"); m.HasBody() {
		t.Fatal("unmaterialized class grew a body")
	}
	if n := l.NumBodiedClasses(); n != 2 {
		t.Fatalf("NumBodiedClasses = %d, want 2", n)
	}
}

// refView is one skim record in comparable form: key rendered, calls
// resolved to signatures.
type refView struct {
	Key     string
	Name    string
	Class   string
	Calls   []jimple.Sig
	Intents []string
}

// indexView renders every record of an index in class-name order, then
// declaration order — the order of the program's own class list — stably
// sorted by key.
func indexView(x *dex.Index) []refView {
	var out []refView
	for slot := int32(0); slot < int32(x.NumClasses()); slot++ {
		lo, hi := x.ClassRecords(slot)
		for i := lo; i < hi; i++ {
			r := x.Records()[i]
			v := refView{Key: x.Key(i), Name: x.MethodSig(i).Name, Class: x.ClassName(r.Class)}
			for _, c := range x.Calls(i) {
				v.Calls = append(v.Calls, x.Sig(c))
			}
			v.Intents = append(v.Intents, x.Intents(i)...)
			out = append(out, v)
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// eagerRefs derives the records straight from an eagerly decoded
// program's bodies — every body-bearing method, its top-level calls in
// statement order (jimple.InvokeOf) and its one-argument setClassName
// string constants — stably sorted by key. It shares no code with either
// index builder.
func eagerRefs(p *jimple.Program) []refView {
	var out []refView
	for _, c := range p.Classes() {
		for _, m := range c.Methods {
			if !m.HasBody() {
				continue
			}
			v := refView{Key: m.Sig.Key(), Name: m.Sig.Name, Class: c.Name}
			for _, s := range m.Body {
				inv, ok := jimple.InvokeOf(s)
				if !ok {
					continue
				}
				v.Calls = append(v.Calls, inv.Callee)
				if inv.Callee.Name == "setClassName" && len(inv.Args) == 1 {
					if sc, ok := inv.Args[0].(jimple.StrConst); ok {
						v.Intents = append(v.Intents, sc.V)
					}
				}
			}
			out = append(out, v)
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// eagerRefClasses is the referenced-class set of an eagerly decoded
// program, as apimodel.LibsUsedBy walks it: supertypes, interfaces,
// top-level invoked classes and local types, sorted, "" dropped.
func eagerRefClasses(p *jimple.Program) []string {
	set := make(map[string]bool)
	for _, c := range p.Classes() {
		set[c.Super] = true
		for _, i := range c.Interfaces {
			set[i] = true
		}
		for _, m := range c.Methods {
			for _, s := range m.Body {
				if inv, ok := jimple.InvokeOf(s); ok {
					set[inv.Callee.Class] = true
				}
			}
			for _, l := range m.Locals {
				set[l.Type] = true
			}
		}
	}
	delete(set, "")
	out := make([]string, 0, len(set))
	for cls := range set {
		out = append(out, cls)
	}
	sort.Strings(out)
	return out
}

// paddedSample is a generated corpus app padded with inert classes, the
// shape of the large-apps workload.
func paddedSample(t testing.TB) *jimple.Program {
	t.Helper()
	apps, err := corpus.GenerateCorpus(7)
	if err != nil {
		t.Fatal(err)
	}
	corpus.AddPadding(apps[0].App, 30)
	return apps[0].App.Program
}

// TestLazyMethodRefsMatchEager: the skim's records, the demand closure's
// input, equal the records derived from the eager decode's bodies.
func TestLazyMethodRefsMatchEager(t *testing.T) {
	apps, err := corpus.GenerateCorpus(11)
	if err != nil {
		t.Fatal(err)
	}
	progs := []*jimple.Program{lazySample(t), dex.EveryOpProgram(t), paddedSample(t)}
	for _, a := range apps[:20] {
		progs = append(progs, a.App.Program)
	}
	for i, p := range progs {
		data := dex.Encode(p)
		l, err := dex.DecodeLazy(data)
		if err != nil {
			t.Fatalf("prog %d: %v", i, err)
		}
		eager, err := dex.Decode(data)
		if err != nil {
			t.Fatalf("prog %d: %v", i, err)
		}
		want := eagerRefs(eager)
		if got := indexView(l.Index()); !reflect.DeepEqual(got, want) {
			t.Fatalf("prog %d: lazy records differ from eager:\nlazy:  %+v\neager: %+v", i, got, want)
		}
	}
}

// TestSkimCoversEveryOpcode: the skim parses every opcode and value tag
// itself. A skim that rejected a form the core accepts would silently
// take lazyBody's materializing fallback, so the fallback counter must
// stay at zero and the records must equal the eager walk's.
func TestSkimCoversEveryOpcode(t *testing.T) {
	data := dex.Encode(dex.EveryOpProgram(t))
	l, err := dex.DecodeLazy(data)
	if err != nil {
		t.Fatal(err)
	}
	if n := l.Fallbacks(); n != 0 {
		t.Fatalf("skim fell back to the materializing core %d times", n)
	}
	eager, err := dex.Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	got, want := indexView(l.Index()), eagerRefs(eager)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("skim records differ from eager:\nlazy:  %+v\neager: %+v", got, want)
	}
	if len(got) != 3 {
		t.Fatalf("%d records, want 3 (util, run, onCreate): %+v", len(got), got)
	}
}

// TestLazyRefClasses: the skim's referenced classes feed
// apimodel.LibsUsedByRefs with the same answer LibsUsedBy computes from
// retained bodies.
func TestLazyRefClasses(t *testing.T) {
	p := lazySample(t)
	l, err := dex.DecodeLazy(dex.Encode(p))
	if err != nil {
		t.Fatal(err)
	}
	reg := apimodel.NewRegistry()
	got := reg.LibsUsedByRefs(l.EachRefClass)
	want := reg.LibsUsedBy(p)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("LibsUsedByRefs(EachRefClass) = %v, want %v", got, want)
	}
	has := func(cls string) bool {
		for _, c := range l.RefClasses() {
			if c == cls {
				return true
			}
		}
		return false
	}
	for _, cls := range []string{
		"android.app.Activity",                       // supertype
		"com.turbomanage.httpclient.BasicHttpClient", // invoked class + local type
		"com.turbomanage.httpclient.HttpResponse",    // local type
		"android.content.Intent",                     // invoked class
	} {
		if !has(cls) {
			t.Errorf("RefClasses missing %s", cls)
		}
	}
}

// TestLazyErrorParity: DecodeLazy accepts exactly what Decode accepts,
// failing with the same error text and offset, across truncations and
// random single-byte corruptions of a small program, the every-opcode
// fixture and a padded corpus app.
func TestLazyErrorParity(t *testing.T) {
	for _, tc := range []struct {
		name string
		prog *jimple.Program
	}{
		{"sample", lazySample(t)},
		{"everyop", dex.EveryOpProgram(t)},
		{"padded", paddedSample(t)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			data := dex.Encode(tc.prog)
			check := func(mut []byte) {
				t.Helper()
				_, eagerErr := dex.Decode(mut)
				_, lazyErr := dex.DecodeLazy(mut)
				if (eagerErr == nil) != (lazyErr == nil) ||
					eagerErr != nil && eagerErr.Error() != lazyErr.Error() {
					t.Fatalf("error parity broken: eager=%v lazy=%v", eagerErr, lazyErr)
				}
			}
			step := max(1, len(data)/400)
			for cut := 0; cut < len(data); cut += step {
				check(data[:cut])
			}
			f := func(posRaw uint16, val byte) bool {
				mut := append([]byte(nil), data...)
				mut[int(posRaw)%len(mut)] = val
				check(mut)
				return true
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestLazyTargetSiteSearch: the caller-index search finds exactly the methods
// with a top-level call to a wanted signature.
func TestLazyTargetSiteSearch(t *testing.T) {
	l, err := dex.DecodeLazy(dex.Encode(lazySample(t)))
	if err != nil {
		t.Fatal(err)
	}
	get := jimple.Sig{
		Class: "com.turbomanage.httpclient.BasicHttpClient", Name: "get",
		Params: []string{"java.lang.String"}, Ret: "com.turbomanage.httpclient.HttpResponse",
	}
	got := l.Index().TargetSiteSearch([]jimple.Sig{get})
	want := []string{"com.app.Main.onCreate(android.os.Bundle)void"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("TargetSiteSearch = %v, want %v", got, want)
	}
	absent := jimple.Sig{Class: "com.squareup.okhttp.Call", Name: "execute", Ret: "com.squareup.okhttp.Response"}
	if got := l.Index().TargetSiteSearch([]jimple.Sig{absent}); got != nil {
		t.Fatalf("TargetSiteSearch(absent) = %v, want nil", got)
	}
}

// registryTargetSigs lists every target API signature of the standard
// registry — the wanted set the engine's seed search uses.
func registryTargetSigs() []jimple.Sig {
	var sigs []jimple.Sig
	for _, lib := range apimodel.NewRegistry().Libraries() {
		for _, tgt := range lib.Targets {
			sigs = append(sigs, tgt.Sig)
		}
	}
	return sigs
}

// FuzzTargetSiteSearch drives the caller-index search against the eager
// decoder: on any input both paths must agree on decodability, and on
// success the search must report exactly the target sites the eager
// decode contains — never a site the eager decoder doesn't, and never one
// fewer (the closure engine's seeds depend on it).
func FuzzTargetSiteSearch(f *testing.F) {
	apps, err := corpus.GenerateCorpus(7)
	if err != nil {
		f.Fatal(err)
	}
	for _, a := range apps[:3] {
		f.Add(dex.Encode(a.App.Program))
	}
	sample := dex.Encode(jimple.MustParse(lazySampleSrc))
	f.Add(sample)
	f.Add(sample[:len(sample)/2])
	flipped := bytes.Clone(sample)
	flipped[len(flipped)/3] ^= 0xff
	f.Add(flipped)
	f.Add([]byte{})
	targets := registryTargetSigs()
	f.Fuzz(func(t *testing.T, data []byte) {
		l, lazyErr := dex.DecodeLazy(data)
		eager, eagerErr := dex.Decode(data)
		if (lazyErr == nil) != (eagerErr == nil) {
			t.Fatalf("decodability disagrees: lazy=%v eager=%v", lazyErr, eagerErr)
		}
		if lazyErr != nil {
			return
		}
		wanted := make(map[string]bool, len(targets))
		for _, s := range targets {
			wanted[s.Key()] = true
		}
		var eagerSites []string
		for _, r := range eagerRefs(eager) {
			for _, c := range r.Calls {
				if wanted[c.Key()] {
					eagerSites = append(eagerSites, r.Key)
					break
				}
			}
		}
		got := l.Index().TargetSiteSearch(targets)
		if !reflect.DeepEqual(got, eagerSites) {
			t.Fatalf("search sites %v, eager sites %v", got, eagerSites)
		}
	})
}

// FuzzLazyIndex drives the skim index against the eager decoder. On any
// input both decoders fail with the same error text or both succeed. On
// any input Decode accepts, the skim takes no fallback, the lazy records
// (keys rendered) equal those derived from the eager program's bodies,
// every caller- and declarer-index lookup equals a linear scan over those
// records, the referenced classes EachRefClass enumerates (collected by
// the test helper RefClasses) equal the eager referenced-class set, none
// of which builds a class, and then a lookup of each class returns the
// eager class with its bodies left out.
func FuzzLazyIndex(f *testing.F) {
	apps, err := corpus.GenerateCorpus(7)
	if err != nil {
		f.Fatal(err)
	}
	for _, a := range apps[:3] {
		f.Add(dex.Encode(a.App.Program))
	}
	f.Add(dex.Encode(paddedSample(f)))
	every := dex.Encode(dex.EveryOpProgram(f))
	f.Add(every)
	f.Add(every[:len(every)/2])
	flipped := bytes.Clone(every)
	flipped[len(flipped)/3] ^= 0xff
	f.Add(flipped)
	// Renaming t.Other to t.Every in the string pool gives a container
	// whose second class replaces the first and whose pool repeats a
	// string: the skim must drop the replaced class's records and match
	// names by string, not by pool index.
	f.Add(bytes.ReplaceAll(every, []byte("t.Other"), []byte("t.Every")))
	f.Add(dex.Encode(jimple.MustParse(lazySampleSrc)))
	// Fields, an interface and a has-body method with no statement.
	f.Add(dex.Encode(membersSample(f)))
	// A repeated class name whose later copy has no bodied method:
	// t.Later sorts after t.First and is renamed to it in the pool, so
	// the bodied t.First is replaced and its records must all go.
	repeated := dex.Encode(jimple.MustParse(`class t.First extends java.lang.Object {
  method run()void {
    staticinvoke t.First.run()void
    return
  }
}
class t.Later extends java.lang.Object {
  field n int
  method abstract run()void
}`))
	f.Add(bytes.ReplaceAll(repeated, []byte("t.Later"), []byte("t.First")))
	// Nested invokes with forged argument counts: the skim rejects them
	// and the eager core, run over the span, fails the same way.
	f.Add(dex.ForgedInvokeChain(f, 200, 1000))
	// Inheritance cycles, and branches and traps outside their body.
	for _, tc := range structureCases {
		p := jimple.MustParse(structureSrc)
		tc.edit(p)
		f.Add(dex.Encode(p))
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		l, lazyErr := dex.DecodeLazy(data)
		eager, eagerErr := dex.Decode(data)
		if (lazyErr == nil) != (eagerErr == nil) || lazyErr != nil && lazyErr.Error() != eagerErr.Error() {
			t.Fatalf("errors disagree: lazy=%v eager=%v", lazyErr, eagerErr)
		}
		if lazyErr != nil {
			return
		}
		// The skim phrases no error, so one that wrongly rejects a valid
		// body shows only as a fallback to the materializing core.
		if n := l.Fallbacks(); n != 0 {
			t.Fatalf("the skim rejected %d bodies the core accepted", n)
		}
		x := l.Index()
		want := eagerRefs(eager)
		if got := indexView(x); !reflect.DeepEqual(got, want) {
			t.Fatalf("lazy records differ from eager:\nlazy:  %+v\neager: %+v", got, want)
		}
		// The linear scan: every name a record declares or calls, mapped to
		// the keys of its declarers and of its callers (each caller once).
		callers := make(map[string][]string)
		declarers := make(map[string][]string)
		for _, r := range want {
			declarers[r.Name] = append(declarers[r.Name], r.Key)
			callers[r.Name] = append(callers[r.Name], []string(nil)...)
			seen := make(map[string]bool)
			for _, c := range r.Calls {
				declarers[c.Name] = append(declarers[c.Name], []string(nil)...)
				if !seen[c.Name] {
					seen[c.Name] = true
					callers[c.Name] = append(callers[c.Name], r.Key)
				}
			}
		}

		keysOf := func(ids []int32) []string {
			var out []string
			for _, i := range ids {
				out = append(out, x.Key(i))
			}
			sort.Strings(out)
			return out
		}
		for _, idx := range []struct {
			what   string
			want   map[string][]string
			lookup func(int32) []int32
		}{{"callers", callers, x.Callers}, {"declarers", declarers, x.Declarers}} {
			for name, keys := range idx.want {
				k, ok := x.NameID(name)
				if !ok {
					t.Fatalf("no name id for %q", name)
				}
				sort.Strings(keys)
				if got := keysOf(idx.lookup(k)); !reflect.DeepEqual(got, keys) {
					t.Fatalf("%s of %q = %v, linear scan %v", idx.what, name, got, keys)
				}
			}
		}
		// An empty set may come back nil or empty.
		if got, want := l.RefClasses(), eagerRefClasses(eager); (len(got) > 0 || len(want) > 0) && !reflect.DeepEqual(got, want) {
			t.Fatalf("RefClasses = %v, eager %v", got, want)
		}
		checkLookupsMatchEager(t, l, eager)
	})
}

// foreignMethodSrc declares two classes; foreignMethodSample moves the
// bodied t.Second.run into t.First, so t.First declares a method whose
// signature names t.Second — the shape a payload mutation of
// gen.app242 produced, after which two methods shared one key.
const foreignMethodSrc = `class t.First extends java.lang.Object {
  method go()void {
    return
  }
}
class t.Second extends java.lang.Object {
  method run()void {
    staticinvoke t.First.go()void
    return
  }
}`

func foreignMethodSample(t testing.TB) []byte {
	t.Helper()
	p := jimple.MustParse(foreignMethodSrc)
	first, second := p.Class("t.First"), p.Class("t.Second")
	first.Methods = append(first.Methods, second.Methods...)
	second.Methods = nil
	return dex.Encode(p)
}

// TestForeignMethodRejected: both decoders reject a method declared in a
// class its signature does not name, with the same error.
func TestForeignMethodRejected(t *testing.T) {
	data := foreignMethodSample(t)
	_, eagerErr := dex.Decode(data)
	_, lazyErr := dex.DecodeLazy(data)
	if eagerErr == nil || lazyErr == nil {
		t.Fatalf("accepted a foreign method: eager=%v lazy=%v", eagerErr, lazyErr)
	}
	if eagerErr.Error() != lazyErr.Error() {
		t.Fatalf("errors disagree: eager=%v lazy=%v", eagerErr, lazyErr)
	}
	const want = "method t.Second.run()void: declared in class t.First"
	if !strings.Contains(eagerErr.Error(), want) {
		t.Errorf("error %q does not name the method and its declarer (%q)", eagerErr, want)
	}
}

// TestReleasedOpensMatchEager: opens that reuse the arrays of released
// ones — grown, copied into or traded, in every order of sizes — build
// the same index, referenced-class set and program as the eager decode,
// and leave no earlier open's records, names or calls behind.
func TestReleasedOpensMatchEager(t *testing.T) {
	apps, err := corpus.GenerateCorpus(11)
	if err != nil {
		t.Fatal(err)
	}
	progs := []*jimple.Program{lazySample(t), paddedSample(t), dex.EveryOpProgram(t)}
	for _, a := range apps[:8] {
		progs = append(progs, a.App.Program)
	}
	progs = append(progs, paddedSample(t))
	var order []int
	for i := range progs {
		order = append(order, i)
	}
	for i := range progs {
		order = append(order, len(progs)-1-i)
	}
	for _, i := range order {
		data := dex.Encode(progs[i])
		eager, err := dex.Decode(data)
		if err != nil {
			t.Fatal(err)
		}
		l, err := dex.DecodeLazy(data)
		if err != nil {
			t.Fatalf("prog %d: %v", i, err)
		}
		x := l.Index()
		if got, want := indexView(x), eagerRefs(eager); !reflect.DeepEqual(got, want) {
			t.Fatalf("prog %d: records after released opens differ from eager:\nlazy:  %+v\neager: %+v", i, got, want)
		}
		for k := int32(0); k < int32(x.NumNames()); k++ {
			var callers, declarers []int32
			for r := range x.Records() {
				if x.Records()[r].Name == k {
					declarers = append(declarers, int32(r))
				}
				for _, c := range x.Calls(int32(r)) {
					if c.Name == k {
						callers = append(callers, int32(r))
						break
					}
				}
			}
			if !slices.Equal(x.Callers(k), callers) || !slices.Equal(x.Declarers(k), declarers) {
				t.Fatalf("prog %d: name %d: callers %v / declarers %v, want %v / %v",
					i, k, x.Callers(k), x.Declarers(k), callers, declarers)
			}
		}
		if got, want := l.RefClasses(), eagerRefClasses(eager); !reflect.DeepEqual(got, want) {
			t.Fatalf("prog %d: referenced classes differ:\nlazy:  %v\neager: %v", i, got, want)
		}
		if err := l.MaterializeAll(); err != nil {
			t.Fatal(err)
		}
		if jimple.Print(l.Program()) != jimple.Print(eager) {
			t.Fatalf("prog %d: materialized program differs from eager decode", i)
		}
		l.Release()
	}
}

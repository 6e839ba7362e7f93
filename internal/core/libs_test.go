package core

import (
	"os"
	"reflect"
	"testing"

	"repro/internal/android"
	"repro/internal/apk"
	"repro/internal/corpus"
	"repro/internal/jimple"
)

// TestLibsUsedMatchesEager pins library usage on the production byte
// path to the whole-program reference: Stats.LibsUsed of ScanBytes, which
// the lazy open resolves from its skim without decoding bodies, must
// equal apimodel's LibsUsedBy over the eager apk.Decode of the same bytes.
// It covers every corpus app, one padded app (whose padding classes are
// never decoded), the every-opcode fixture and an app that reaches its
// libraries only through a superclass and an interface.
func TestLibsUsedMatchesEager(t *testing.T) {
	members, err := corpus.GenerateCorpus(2016)
	if err != nil {
		t.Fatal(err)
	}
	type libApp struct {
		name string
		app  *apk.App
	}
	var apps []libApp
	for _, m := range members {
		apps = append(apps, libApp{m.Name, m.App})
	}
	padded, err := corpus.GenerateCorpus(2016)
	if err != nil {
		t.Fatal(err)
	}
	corpus.AddPadding(padded[0].App, 300)
	apps = append(apps, libApp{padded[0].Name + "+pad300", padded[0].App})
	apps = append(apps, libApp{"everyop", everyOpApp(t)}, libApp{"supertypes-only", supertypeLibApp()})

	nc := NewWithOptions(Options{Workers: 1})
	reg := nc.Registry()
	used := 0
	for _, a := range apps {
		data, err := apk.Encode(a.app)
		if err != nil {
			t.Fatalf("%s: %v", a.name, err)
		}
		res, err := nc.ScanBytes(data)
		if err != nil {
			t.Fatalf("%s: %v", a.name, err)
		}
		eager, err := apk.Decode(data)
		if err != nil {
			t.Fatalf("%s: %v", a.name, err)
		}
		got, want := res.Stats.LibsUsed, reg.LibsUsedBy(eager.Program)
		if (len(got) > 0 || len(want) > 0) && !reflect.DeepEqual(got, want) {
			t.Errorf("%s: ScanBytes LibsUsed = %v, eager LibsUsedBy = %v", a.name, got, want)
		}
		if len(want) > 0 {
			used++
		}
	}
	if used == 0 {
		t.Fatal("no app uses a library; the comparison would be vacuous")
	}
}

// everyOpApp wraps the dex package's every-opcode fixture in a container
// app whose one activity is the fixture's main class.
func everyOpApp(t *testing.T) *apk.App {
	t.Helper()
	src, err := os.ReadFile("../dex/testdata/everyop.jimple")
	if err != nil {
		t.Fatal(err)
	}
	prog, err := jimple.Parse(string(src))
	if err != nil {
		t.Fatal(err)
	}
	man := &android.Manifest{Package: "t", Activities: []string{"t.Every"}}
	man.Normalize()
	return &apk.App{Manifest: man, Program: prog}
}

// supertypeLibApp uses OkHttp only by implementing its callback interface
// and the async HTTP library only by extending its handler: no body, local
// or call names either library, so only the supertype walk finds them.
func supertypeLibApp() *apk.App {
	prog := jimple.MustParse(`class com.ifc.Main extends android.app.Activity {
  method onCreate(android.os.Bundle)void {
    return
  }
}
class com.ifc.Cb extends java.lang.Object implements com.squareup.okhttp.Callback {
  method onFailure(com.squareup.okhttp.Request,java.io.IOException)void {
    return
  }
}
class com.ifc.Handler extends com.loopj.android.http.AsyncHttpResponseHandler {
}`)
	man := &android.Manifest{Package: "com.ifc", Activities: []string{"com.ifc.Main"}}
	man.Normalize()
	return &apk.App{Manifest: man, Program: prog}
}

package callgraph

import (
	"testing"

	"repro/internal/android"
	"repro/internal/hierarchy"
	"repro/internal/jimple"
)

// The production base layer has no bodied methods, so Base.Build's walk
// of bodied base classes is pinned here on a base that has some: a
// listener whose callback is an entry and dispatches into app overrides,
// and an activity the app shadows with a non-component class.
const bodiedBase = `class lib.Click extends java.lang.Object implements android.view.View$OnClickListener {
  method onClick(android.view.View)void {
    local self lib.Click
    self = this lib.Click
    virtualinvoke self lib.Click.hook()void
    return
  }
  method hook()void {
    return
  }
}
class lib.Shadowed extends android.app.Activity {
  method onCreate(android.os.Bundle)void {
    return
  }
}`

const overBodiedBase = `class app.MyClick extends lib.Click {
  method hook()void {
    return
  }
}
class lib.Shadowed extends java.lang.Object {
  method helper()void {
    return
  }
}`

func TestBaseBuildMatchesFlatWithBodiedBase(t *testing.T) {
	baseProg := jimple.MustParse(bodiedBase)
	baseProg.Merge(android.Framework())
	baseProg.Freeze()
	base := NewBase(hierarchy.New(baseProg))
	if base.NumClasses() != 2 {
		t.Fatalf("base bodied classes = %d, want 2", base.NumClasses())
	}

	app := jimple.MustParse(overBodiedBase)
	flat := jimple.NewProgram()
	flat.Merge(app)
	flat.Merge(baseProg)
	want := Build(hierarchy.New(flat), nil)
	got := base.Build(hierarchy.NewOverlay(base.h, jimple.NewOverlay(app, baseProg)), nil, Options{})

	if want.NumMethods() != got.NumMethods() || want.NumEdges() != got.NumEdges() {
		t.Fatalf("methods/edges: flat %d/%d, overlay %d/%d",
			want.NumMethods(), want.NumEdges(), got.NumMethods(), got.NumEdges())
	}
	if len(want.Entries()) != len(got.Entries()) {
		t.Fatalf("entries: flat %d, overlay %d", len(want.Entries()), len(got.Entries()))
	}
	for i, e := range want.Entries() {
		if got.Entries()[i] != e {
			t.Errorf("entry %d: flat %+v, overlay %+v", i, e, got.Entries()[i])
		}
	}
	onClick := "lib.Click.onClick(android.view.View)void"
	if len(got.Entries()) != 1 || got.Entries()[0].Method.Sig.Key() != onClick {
		t.Errorf("want the base listener as the only entry, got %+v", got.Entries())
	}
	if got.Method("lib.Shadowed.onCreate(android.os.Bundle)void") != nil {
		t.Error("a shadowed base class's bodied method leaked into the graph")
	}
	var callees []string
	for _, e := range got.OutEdges(onClick) {
		callees = append(callees, e.Callee.Key())
	}
	if len(callees) != 2 || callees[0] != "app.MyClick.hook()void" || callees[1] != "lib.Click.hook()void" {
		t.Errorf("base callback must dispatch into the app override too, got %v", callees)
	}
}

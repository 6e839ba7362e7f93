package checkers

import (
	"reflect"
	"testing"
)

// counterStructs returns the three counter structs of d, the families the
// catalog must cover.
func counterStructs(d *Diagnostics) []reflect.Value {
	return []reflect.Value{
		reflect.ValueOf(&d.Cache).Elem(),
		reflect.ValueOf(&d.Targeted).Elem(),
		reflect.ValueOf(&d.Validate).Elem(),
	}
}

// TestCounterCatalogComplete pins the catalog contract with reflection:
// EachCounter yields every int field of CacheStats, TargetedStats and
// ValidateStats exactly once under a unique family/name, and Merge sums
// every one of them. Adding a counter field without a tag panics at init;
// a field the catalog skipped or double-counted fails here.
func TestCounterCatalogComplete(t *testing.T) {
	d := populatedDiagnostics() // every counter field holds a distinct value
	fieldOf := make(map[int]string)
	for _, s := range counterStructs(&d) {
		for i := 0; i < s.NumField(); i++ {
			if s.Field(i).Kind() != reflect.Int {
				t.Fatalf("%s.%s is %s, not int", s.Type().Name(), s.Type().Field(i).Name, s.Field(i).Type())
			}
			fieldOf[int(s.Field(i).Int())] = s.Type().Name() + "." + s.Type().Field(i).Name
		}
	}

	names := make(map[string]bool)
	yielded := make(map[int]string)
	d.EachCounter(func(family, name string, v int) {
		key := family + "/" + name
		if names[key] {
			t.Errorf("counter %s yielded twice", key)
		}
		names[key] = true
		field, ok := fieldOf[v]
		if !ok {
			t.Errorf("counter %s = %d: not wired to any counter field", key, v)
			return
		}
		if prev, dup := yielded[v]; dup {
			t.Errorf("counters %s and %s both read %s", prev, key, field)
		}
		yielded[v] = key
	})
	for v, field := range fieldOf {
		if _, ok := yielded[v]; !ok {
			t.Errorf("%s is never yielded by EachCounter", field)
		}
	}

	// Merging a Diagnostics into a copy of itself doubles every counter.
	merged := populatedDiagnostics()
	merged.Merge(populatedDiagnostics())
	want, got := counterStructs(&d), counterStructs(&merged)
	for k := range want {
		for i := 0; i < want[k].NumField(); i++ {
			if w, g := 2*want[k].Field(i).Int(), got[k].Field(i).Int(); g != w {
				t.Errorf("Merge: %s.%s = %d, want %d",
					want[k].Type().Name(), want[k].Type().Field(i).Name, g, w)
			}
		}
	}
	if merged.Total != 2*d.Total || merged.AppMethods != 2*d.AppMethods || merged.Sites != 2*d.Sites {
		t.Errorf("Merge totals: %v/%d/%d, want doubled %v/%d/%d",
			merged.Total, merged.AppMethods, merged.Sites, d.Total, d.AppMethods, d.Sites)
	}
	if len(merged.Stages) != len(d.Stages) {
		t.Fatalf("Merge: %d stages, want %d", len(merged.Stages), len(d.Stages))
	}
	for i, s := range merged.Stages {
		if o := d.Stages[i]; s.Duration != 2*o.Duration || s.Items != 2*o.Items || s.Reports != 2*o.Reports {
			t.Errorf("Merge: stage %s = %+v, want double %+v", s.Name, s, o)
		}
	}
	if len(merged.Errors) != 2*len(d.Errors) {
		t.Errorf("Merge: %d errors, want %d", len(merged.Errors), 2*len(d.Errors))
	}
}

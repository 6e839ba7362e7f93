package checkers

import (
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata goldens")

// populatedDiagnostics returns a Diagnostics with every counter field of
// Cache, Targeted and Validate set to a distinct value (by reflection, in
// declaration order), fixed stage durations covering every checker
// family, and one ScanError.
func populatedDiagnostics() Diagnostics {
	d := Diagnostics{
		Total:      1500 * time.Millisecond,
		Open:       420 * time.Microsecond,
		AppMethods: 7,
		Sites:      3,
		Errors: []ScanError{{Kind: ErrDeadline, Stage: "discover", Unit: -1,
			Msg: "context deadline exceeded"}},
	}
	n := int64(1)
	for _, s := range []interface{}{&d.Cache, &d.Targeted, &d.Validate} {
		v := reflect.ValueOf(s).Elem()
		for i := 0; i < v.NumField(); i++ {
			v.Field(i).SetInt(100 + n)
			n++
		}
	}
	d.add("cacheprobe", 250*time.Microsecond, 1, 0)
	d.add("build", 2*time.Millisecond, 40, 0)
	d.add("discover", 3*time.Millisecond, 12, 0)
	for f := 1; f <= NumCheckerFamilies; f++ {
		d.add(StageOfFamily(f), time.Duration(f)*time.Millisecond, 10*f, f)
	}
	d.add("validate", 5*time.Millisecond, 36, 0)
	return d
}

// TestDiagnosticsRenderGolden pins the -timings text of a fully populated
// Diagnostics byte for byte: every counter line, its order and its
// wording. Regenerate with:
// go test ./internal/checkers -run TestDiagnosticsRenderGolden -update
func TestDiagnosticsRenderGolden(t *testing.T) {
	d := populatedDiagnostics()
	got := d.Render()
	path := filepath.Join("testdata", "diagnostics_render.golden")
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update): %v", err)
	}
	if got != string(want) {
		t.Errorf("Render drifted from %s:\n--- want ---\n%s--- got ---\n%s", path, want, got)
	}
}

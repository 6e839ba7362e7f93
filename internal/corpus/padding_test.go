package corpus

import (
	"reflect"
	"testing"

	"repro/internal/apk"
	"repro/internal/core"
)

// TestPaddingIsInert: padding classes change no report, and the engine
// never decodes one — the invariant the padded-scale benchmark
// (BenchmarkScanPadded*) and the large-apps workload rest on.
func TestPaddingIsInert(t *testing.T) {
	spec := GoldenSpecs()[0].Spec
	plain, err := Build(spec)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	padded, err := Build(spec)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	const pad = 25
	AddPadding(padded, pad)
	if got := padded.Program.NumClasses() - plain.Program.NumClasses(); got != pad {
		t.Fatalf("padding added %d classes, want %d", got, pad)
	}

	base := core.New().ScanApp(plain)
	data, err := apk.Encode(padded)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	res, err := core.New().ScanBytes(data)
	if err != nil {
		t.Fatalf("ScanBytes: %v", err)
	}
	if !reflect.DeepEqual(res.Reports, base.Reports) {
		t.Error("padding changed the reports")
	}
	if !reflect.DeepEqual(res.Stats, base.Stats) {
		t.Errorf("padding changed the stats:\n%+v\n%+v", res.Stats, base.Stats)
	}
	if ts := res.Diagnostics.Targeted; ts.ClassesSkipped < pad {
		t.Errorf("the scan decoded padding: skipped %d classes, want >= %d", ts.ClassesSkipped, pad)
	}
}

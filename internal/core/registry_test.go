package core

import (
	"testing"

	"repro/internal/apimodel"
	"repro/internal/apk"
)

// TestBatchScansBuildOneRegistry pins the fix for the batch-mode
// per-app registry-construction bug: the pipeline's build stage merged
// apimodel.Stubs() per scan, and Stubs() used to construct a fresh
// registry (and stub program) on every call — so scanning N files
// rebuilt the registry N times. Stubs() and android.Framework() are now
// memoized process-wide; after a warm-up scan, scanning more apps on the
// same Checker must construct zero additional registries.
func TestBatchScansBuildOneRegistry(t *testing.T) {
	nc := New()
	// Warm up: the first scan may lazily build the memoized stub program
	// (which constructs its one generator registry).
	if res := nc.ScanApp(buggyApp(t)); res.Incomplete {
		t.Fatalf("warm-up scan incomplete: %v", res.Err())
	}

	before := apimodel.RegistryBuilds()
	for i := 0; i < 3; i++ {
		if res := nc.ScanApp(buggyApp(t)); res.Incomplete {
			t.Fatalf("batch scan %d incomplete: %v", i, res.Err())
		}
	}
	if after := apimodel.RegistryBuilds(); after != before {
		t.Fatalf("batch scans built %d extra registries; the registry must be constructed once per Checker, not per app", after-before)
	}
}

// TestWithOptionsSharesRegistry pins WithOptions' economy: deriving a
// per-job Checker (what nchecker serve does for ?validate= and ?checkers=
// jobs) must reuse the parent's registry, and scanning through the
// derived checker — the lazy open path included — must build no
// registries either.
func TestWithOptionsSharesRegistry(t *testing.T) {
	nc := New()
	if res := nc.ScanApp(buggyApp(t)); res.Incomplete {
		t.Fatalf("warm-up scan incomplete: %v", res.Err())
	}
	data, err := apk.Encode(buggyApp(t))
	if err != nil {
		t.Fatal(err)
	}

	before := apimodel.RegistryBuilds()
	opts := nc.Options()
	opts.Checkers = 1
	derived := nc.WithOptions(opts)
	if derived.Registry() != nc.Registry() {
		t.Fatal("WithOptions must share the parent registry")
	}
	if derived.Options().Checkers != 1 || nc.Options().Checkers != 0 {
		t.Fatalf("options wrong: derived=%v parent=%v", derived.Options().Checkers, nc.Options().Checkers)
	}
	res, err := derived.ScanBytes(data)
	if err != nil {
		t.Fatalf("derived ScanBytes: %v", err)
	}
	if after := apimodel.RegistryBuilds(); after != before {
		t.Fatalf("WithOptions scan built %d extra registries", after-before)
	}

	all, err := nc.ScanBytes(data)
	if err != nil {
		t.Fatalf("parent ScanBytes: %v", err)
	}
	if len(res.Reports) == 0 || len(res.Reports) >= len(all.Reports) {
		t.Errorf("family-1 scan reports %d of the parent's %d warnings; the override did not apply", len(res.Reports), len(all.Reports))
	}
}

package experiments

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/apk"
	"repro/internal/checkers"
	"repro/internal/core"
)

// TestValidationPartitionsEveryWarning is the tentpole acceptance
// criterion on the golden corpus: -validate puts every warning in exactly
// one verdict bucket, the buckets are all inhabited (the corpus has real
// defects, false positives, and — via the adversarial shapes — warnings
// only dynamic replay can refuse to judge is not guaranteed, but
// confirmed and unconfirmed must both appear), and the oracle
// cross-reference finds known FPs among the unconfirmed.
func TestValidationPartitionsEveryWarning(t *testing.T) {
	v, err := ValidationBreakdown()
	if err != nil {
		t.Fatalf("ValidationBreakdown: %v", err)
	}
	if len(v.Rows) != 16 {
		t.Fatalf("breakdown covers %d apps, want the 16 goldens", len(v.Rows))
	}
	var tot ValidationRow
	for _, r := range v.Rows {
		if r.Confirmed+r.Unconfirmed+r.NotValidated != r.Warnings {
			t.Errorf("%s: verdicts %d+%d+%d do not partition %d warnings",
				r.App, r.Confirmed, r.Unconfirmed, r.NotValidated, r.Warnings)
		}
		tot.Warnings += r.Warnings
		tot.Confirmed += r.Confirmed
		tot.Unconfirmed += r.Unconfirmed
	}
	if tot.Warnings == 0 || tot.Confirmed == 0 || tot.Unconfirmed == 0 {
		t.Errorf("degenerate breakdown: %+v", tot)
	}
	if v.KnownFPs == 0 {
		t.Error("oracle reports no known FPs on the goldens; cross-reference is vacuous")
	}
	if v.FPsUnconfirmed == 0 {
		t.Error("validation caught none of the oracle's false positives")
	}
	if v.FPsUnconfirmed > v.KnownFPs {
		t.Errorf("caught %d FPs out of %d known", v.FPsUnconfirmed, v.KnownFPs)
	}
}

// TestValidationBreakdownSnapshot locks the rendered breakdown — verdict
// counts and the FP-reduction line — against a committed snapshot.
// Refresh with
//
//	go test ./internal/experiments -run TestValidationBreakdownSnapshot -update-golden
func TestValidationBreakdownSnapshot(t *testing.T) {
	v, err := ValidationBreakdown()
	if err != nil {
		t.Fatalf("ValidationBreakdown: %v", err)
	}
	got := v.Render()
	path := filepath.Join("testdata", "golden_validation.txt")
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", path, len(got))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing snapshot (run with -update-golden to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("validation breakdown changed; run with -update-golden if intended.\n%s",
			firstDiff(string(want), got))
	}
}

// TestValidatedReportsIdenticalAcrossModesAndWorkers: the rendered
// golden reports — verdict and note included — are byte-identical
// between the engine and the whole-program oracle and across worker
// counts. Replay verdicts must be a function of the app, never of the
// traversal or scheduling.
func TestValidatedReportsIdenticalAcrossModesAndWorkers(t *testing.T) {
	base := goldenReportTextWith(t, checkers.OracleOptions(core.Options{Workers: 1, Validate: true}))
	for _, w := range []int{1, 2, 8} {
		if got := goldenReportTextWith(t, core.Options{Workers: w, Validate: true}); got != base {
			t.Errorf("workers=%d validated reports differ from the oracle:\n%s", w, firstDiff(base, got))
		}
	}
}

// TestValidatedLazyPathMatchesFull routes the goldens through the byte
// container — the path where classes are decoded lazily and the validate
// stage must materialize the app before replaying — and requires
// report-level equality (verdicts included) with the oracle's ScanApp of
// the golden.
func TestValidatedLazyPathMatchesFull(t *testing.T) {
	apps := mustGoldens(t)
	full := core.NewWithOptions(checkers.OracleOptions(core.Options{Workers: 1, Validate: true}))
	lazy := core.NewWithOptions(core.Options{Workers: 1, Validate: true})
	for _, a := range apps {
		data, err := apk.Encode(a.App)
		if err != nil {
			t.Fatalf("%s: encode: %v", a.Name, err)
		}
		fres := full.ScanApp(a.App)
		lres, err := lazy.ScanBytes(data)
		if err != nil {
			t.Fatalf("%s: ScanBytes: %v", a.Name, err)
		}
		if lres.Incomplete {
			t.Fatalf("%s: validated scan degraded: %v", a.Name, lres.Err())
		}
		if !reflect.DeepEqual(fres.Reports, lres.Reports) {
			t.Errorf("%s: lazy validated reports differ from the oracle", a.Name)
		}
	}
}

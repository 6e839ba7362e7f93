package core

import (
	"testing"

	"repro/internal/apk"
	"repro/internal/testutil"
)

// TestScanAllocsRegression pins an allocation budget on the per-app scan
// path: one ScanApp of the canonical fixture through a single-threaded
// pipeline must stay under the case's budget. The fleet dispatch path
// runs this exact call once per /scansync request, so an allocation
// regression here multiplies by the whole corpus × worker count. Two
// shapes of scan are gated: "full" runs every checker family, and
// "targeted" runs a family subset, whose demand-driven closure is
// narrower, so a regression in the subset path is caught alongside one
// in the full scan. The budgets carry ~10% headroom over the measured
// values (full: 448, targeted: 348); if a deliberate feature change
// raises a floor, re-measure with
// `go test ./internal/core -run TestScanAllocsRegression -v` and update
// the constant in the same commit that explains why.
//
// The thresholds only bind without -race: the race runtime's
// instrumentation allocates on its own account.
const (
	scanAllocBudgetFull     = 493
	scanAllocBudgetTargeted = 383
)

// targetedAllocFamilies is the checker subset the "targeted" case scans.
const targetedAllocFamilies = "1,3"

func TestScanAllocsRegression(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement is not meaningful with -short's reduced work")
	}
	data := testutil.MustFixtureApp(t)
	targeted, err := ParseCheckerSet(targetedAllocFamilies)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name     string
		checkers CheckerSet
		budget   int
	}{
		{"full", 0, scanAllocBudgetFull},
		{"targeted", targeted, scanAllocBudgetTargeted},
	} {
		t.Run(tc.name, func(t *testing.T) {
			app, err := apk.Decode(data)
			if err != nil {
				t.Fatal(err)
			}
			// Workers:1 keeps the pipeline single-threaded: goroutine stacks
			// and channel buffers would otherwise smear the measurement.
			nc := NewWithOptions(Options{Workers: 1, Checkers: tc.checkers})

			// Warm once: registry laziness, stub program, and pool growth
			// must not bill the steady-state measurement.
			if res := nc.ScanApp(app); len(res.Reports) == 0 {
				t.Fatal("fixture app produced no reports; the measurement would be vacuous")
			}

			avg := testing.AllocsPerRun(10, func() {
				res := nc.ScanApp(app)
				if res.Incomplete {
					t.Fatal("scan degraded during measurement")
				}
			})
			t.Logf("ScanApp allocations/run = %.0f (budget %d)", avg, tc.budget)
			if testutil.RaceEnabled {
				t.Skipf("race detector enabled; measured %.0f for the log only", avg)
			}
			if avg > float64(tc.budget) {
				t.Errorf("ScanApp allocates %.0f per run, over the %d budget — "+
					"if intentional, re-measure and raise the budget in the same change",
					avg, tc.budget)
			}
		})
	}
}

package core

import (
	"testing"

	"repro/internal/apk"
	"repro/internal/testutil"
)

// TestScanAllocsRegression pins an allocation budget on the per-app scan
// path: one ScanApp of the canonical fixture through a single-threaded
// pipeline must stay under the mode's budget. The fleet dispatch path
// runs this exact call once per /scansync request, so an allocation
// regression here multiplies by the whole corpus × worker count. Both
// engine traversals are gated, so a fast-path regression in the targeted
// closure is caught alongside one in the full pipeline. The budgets carry
// ~10% headroom over the measured values (full: 462, targeted: 525);
// if a deliberate feature change raises a floor, re-measure
// with `go test ./internal/core -run TestScanAllocsRegression -v` and
// update the constant in the same commit that explains why.
//
// The thresholds only bind without -race: the race runtime's
// instrumentation allocates on its own account.
const (
	scanAllocBudgetFull     = 510
	scanAllocBudgetTargeted = 580
)

func TestScanAllocsRegression(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement is not meaningful with -short's reduced work")
	}
	data := testutil.MustFixtureApp(t)
	for _, tc := range []struct {
		name   string
		mode   EngineMode
		budget int
	}{
		{"full", ModeFull, scanAllocBudgetFull},
		{"targeted", ModeTargeted, scanAllocBudgetTargeted},
	} {
		t.Run(tc.name, func(t *testing.T) {
			app, err := apk.Decode(data)
			if err != nil {
				t.Fatal(err)
			}
			// Workers:1 keeps the pipeline single-threaded: goroutine stacks
			// and channel buffers would otherwise smear the measurement.
			nc := NewWithOptions(Options{Workers: 1, Mode: tc.mode})

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

package core

import (
	"runtime"
	"runtime/debug"
	"testing"

	"repro/internal/apk"
	"repro/internal/corpus"
	"repro/internal/testutil"
)

// TestScanAllocsRegression pins an allocation budget on the per-app scan
// path: one ScanBytes of the canonical fixture's container through a
// single-threaded pipeline — the lazy open included — must stay under
// the case's budget. Every production scan runs this path (the CLI, and
// the fleet's /scansync handler once per request through
// ScanBytesContext), so an allocation regression here multiplies by the
// whole corpus × worker count. Two shapes of scan are gated: "full" runs
// every checker family, and "targeted" runs a family subset, whose
// demand-driven closure is narrower, so a regression in the subset path
// is caught alongside one in the full scan. The budgets carry ~10%
// headroom over the measured values (full: 313, targeted: 264; 337 and
// 292 before bodies were carved from slabs and the per-method kernels
// went flat, 469 and 372 before the call graph and its kernels moved to
// method ids); if a deliberate feature change raises a floor, re-measure with
// `go test ./internal/core -run TestScanAllocsRegression -v` and update
// the constant in the same commit that explains why.
//
// The thresholds only bind without -race: the race runtime's
// instrumentation allocates on its own account.
const (
	scanAllocBudgetFull     = 345
	scanAllocBudgetTargeted = 290
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
			// Workers:1 keeps the pipeline single-threaded: goroutine stacks
			// and channel buffers would otherwise smear the measurement.
			nc := NewWithOptions(Options{Workers: 1, Checkers: tc.checkers})

			// Warm once: registry laziness, stub program, and pool growth
			// must not bill the steady-state measurement.
			if res, err := nc.ScanBytes(data); err != nil || len(res.Reports) == 0 {
				t.Fatalf("fixture app produced no reports (err %v); the measurement would be vacuous", err)
			}

			avg := testing.AllocsPerRun(10, func() {
				res, err := nc.ScanBytes(data)
				if err != nil || res.Incomplete {
					t.Fatal("scan failed or degraded during measurement")
				}
			})
			t.Logf("ScanBytes allocations/run = %.0f (budget %d)", avg, tc.budget)
			if testutil.RaceEnabled {
				t.Skipf("race detector enabled; measured %.0f for the log only", avg)
			}
			if avg > float64(tc.budget) {
				t.Errorf("ScanBytes allocates %.0f per run, over the %d budget — "+
					"if intentional, re-measure and raise the budget in the same change",
					avg, tc.budget)
			}
		})
	}
}

// TestOpenAllocsRegression pins allocation budgets on the lazy open
// every container scan starts with: apk.DecodeLazy of the canonical
// fixture padded with openAllocPadding inert classes, the shape of a
// large app whose closure skips almost every class. It measures two
// steady states. An open whose app is never released stores its records,
// calls and indices flat, in pooled scratch copied out at exact size, so
// its allocations must stay flat in the app's size rather than grow per
// method; and it keeps class headers as integers, so its bytes must not
// pay for classes, fields, methods or bodies. Its budgets carry ~10% headroom
// over the measured 29 allocations and 124,304 bytes (32 and 159,386
// while the open built every class header; the open whose slabs grew by
// append measured 88 and 268,049; the one that built every method header
// and copied the whole payload into a string, 558,700 bytes). An open
// whose app is released after it, as every scan's is, reuses the
// released arrays instead (DESIGN.md §13, "A scan returns what it
// opened"), class table included, so it allocates only what outlives the
// release: the pool text, the program, its per-class memo and the
// handles. Its budgets carry ~10% headroom over the measured 18
// allocations and 25,573 bytes (23 and 75,706 while it built every class
// header). Re-measure with
// `go test ./internal/core -run TestOpenAllocsRegression -v` and update
// the constants in the same commit that explains why.
const (
	openAllocPadding = 300
	openAllocBudget  = 32
	openBytesBudget  = 137_000

	releasedOpenAllocBudget = 20
	releasedOpenBytesBudget = 28_500
)

func TestOpenAllocsRegression(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement is not meaningful with -short's reduced work")
	}
	app, err := apk.Decode(testutil.MustFixtureApp(t))
	if err != nil {
		t.Fatal(err)
	}
	corpus.AddPadding(app, openAllocPadding)
	data, err := apk.Encode(app)
	if err != nil {
		t.Fatal(err)
	}
	// Both measurements lean on sync.Pools, which a GC empties and whose
	// Puts may land out of AllocsPerRun's one P's reach: hold the
	// collector off and run one P throughout, as
	// TestScanBytesAllocsRegression does.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, tc := range []struct {
		name                string
		release             bool
		allocBudget, budget uint64
	}{
		{"unreleased", false, openAllocBudget, openBytesBudget},
		{"released", true, releasedOpenAllocBudget, releasedOpenBytesBudget},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			const runs = 10
			avg := testing.AllocsPerRun(runs, func() {
				app, err := apk.DecodeLazy(data)
				if err != nil {
					t.Fatal(err)
				}
				if tc.release {
					app.Release()
				}
			})
			runtime.ReadMemStats(&after)
			// AllocsPerRun adds one warm-up run to the measured ones.
			bytes := (after.TotalAlloc - before.TotalAlloc) / (runs + 1)
			t.Logf("DecodeLazy allocations/run = %.0f (budget %d), bytes/run = %d (budget %d)",
				avg, tc.allocBudget, bytes, tc.budget)
			if testutil.RaceEnabled {
				t.Skipf("race detector enabled; measured %.0f allocations, %d bytes, for the log only", avg, bytes)
			}
			if avg > float64(tc.allocBudget) {
				t.Errorf("DecodeLazy allocates %.0f per run, over the %d budget — "+
					"if intentional, re-measure and raise the budget in the same change",
					avg, tc.allocBudget)
			}
			if bytes > tc.budget {
				t.Errorf("DecodeLazy allocates %d bytes per run, over the %d budget — "+
					"if intentional, re-measure and raise the budget in the same change",
					bytes, tc.budget)
			}
		})
	}
}

// TestScanBytesAllocsRegression pins an allocation and a byte budget on
// the whole production byte scan: ScanBytes of the canonical fixture
// padded with openAllocPadding inert classes, through a single-threaded
// pipeline. It gates the analysis half TestOpenAllocsRegression leaves
// out — closure, materialization, overlay hierarchy, call graph,
// summaries, checkers and library usage — on the shape where a stage
// doing work per app class, not per demanded class, shows up. The
// budgets carry ~10% headroom over the measured 301 allocations and
// 47,896 bytes (317 and 108,208 before the open kept class headers as
// ids and built a class only on its first lookup; 324 and 202,120
// before a scan released the app it
// opened and its stages held their reports by pointer; 348 and 204,750
// before bodies were carved from slabs and the per-method kernels went
// flat; 480 and 213,529 before the call graph and its kernels moved to
// method ids; 541 and 351,432 before the open's slabs were pooled). Re-measure with
// `go test ./internal/core -run TestScanBytesAllocsRegression -v` and
// update the constants in the same commit that explains why.
const (
	scanBytesAllocBudget = 331
	scanBytesBytesBudget = 53_000
)

func TestScanBytesAllocsRegression(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement is not meaningful with -short's reduced work")
	}
	app, err := apk.Decode(testutil.MustFixtureApp(t))
	if err != nil {
		t.Fatal(err)
	}
	corpus.AddPadding(app, openAllocPadding)
	data, err := apk.Encode(app)
	if err != nil {
		t.Fatal(err)
	}
	nc := NewWithOptions(Options{Workers: 1})
	// The open's scratch and the arrays of released opens come from
	// sync.Pools, and a run that misses them re-grows the scratch or
	// allocates the index: ~160 KB, a second mode ~14 KB a run higher.
	// Two things made a measured run miss it: a GC, which empties the
	// pool, and the warm-up's Put landing in another P's private slot,
	// which AllocsPerRun's GOMAXPROCS(1) leaves out of reach. So the
	// collector is held off and one P runs from the warm-up on.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	// Warm once: the base layer, registry memos and pool growth must not
	// bill the steady-state measurement.
	if res, err := nc.ScanBytes(data); err != nil || len(res.Reports) == 0 {
		t.Fatalf("padded fixture scan: err=%v; the measurement needs warnings", err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	const runs = 10
	avg := testing.AllocsPerRun(runs, func() {
		res, err := nc.ScanBytes(data)
		if err != nil || res.Incomplete {
			t.Fatalf("scan failed or degraded during measurement: %v", err)
		}
	})
	runtime.ReadMemStats(&after)
	// AllocsPerRun adds one warm-up run to the measured ones.
	bytes := (after.TotalAlloc - before.TotalAlloc) / (runs + 1)
	t.Logf("ScanBytes allocations/run = %.0f (budget %d), bytes/run = %d (budget %d)",
		avg, scanBytesAllocBudget, bytes, scanBytesBytesBudget)
	if testutil.RaceEnabled {
		t.Skipf("race detector enabled; measured %.0f allocations, %d bytes, for the log only", avg, bytes)
	}
	if avg > float64(scanBytesAllocBudget) {
		t.Errorf("ScanBytes allocates %.0f per run, over the %d budget — "+
			"if intentional, re-measure and raise the budget in the same change",
			avg, scanBytesAllocBudget)
	}
	if bytes > scanBytesBytesBudget {
		t.Errorf("ScanBytes allocates %d bytes per run, over the %d budget — "+
			"if intentional, re-measure and raise the budget in the same change",
			bytes, scanBytesBytesBudget)
	}
}

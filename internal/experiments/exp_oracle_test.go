package experiments

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/apk"
	"repro/internal/checkers"
	"repro/internal/core"
	"repro/internal/corpus"
)

// This file is the engine-vs-oracle differential (DESIGN.md §9): the
// demand-driven engine must match the test-only whole-program oracle
// (checkers.OracleOptions) in reports and Stats, byte for byte, over the
// goldens, the 285-app corpus and padded apps, at worker counts 1/2/8,
// with the cache off, cold and warm. Both scan a lazy open of the app's
// container (ScanApp encodes an in-memory app first). Only Diagnostics
// may differ.

var oracleOpts = checkers.OracleOptions(core.Options{Workers: 1})

// engineCell is one worker × cache configuration of the engine.
type engineCell struct {
	name string
	opts core.Options
}

// engineCells crosses worker counts 1/2/8 with the cache off, then cold
// and warm through one fresh read-write directory per worker count.
func engineCells(t *testing.T) []engineCell {
	var cells []engineCell
	for _, w := range []int{1, 2, 8} {
		rw := core.Options{Workers: w, CacheDir: t.TempDir(), CacheMode: core.CacheRW}
		cells = append(cells,
			engineCell{fmt.Sprintf("off-w%d", w), core.Options{Workers: w}},
			engineCell{fmt.Sprintf("cold-w%d", w), rw},
			engineCell{fmt.Sprintf("warm-w%d", w), rw})
	}
	return cells
}

// matchOracle fails t when the engine's reports or stats differ from the
// oracle's.
func matchOracle(t *testing.T, label string, want, got AppResult) {
	t.Helper()
	if !reflect.DeepEqual(want.Reports, got.Reports) {
		t.Errorf("%s: reports differ from the oracle", label)
	}
	if !reflect.DeepEqual(want.Stats, got.Stats) {
		t.Errorf("%s: stats differ from the oracle", label)
	}
}

func resultOf(r *core.Result) AppResult { return AppResult{Reports: r.Reports, Stats: r.Stats} }

// TestTargetedDifferentialFullCorpus scans all 285 corpus apps with the
// oracle and with the engine in every worker × cache cell, and requires
// per-app reports and stats to match exactly. Each warm pass must be
// answered from cache, or the cell would not test the warm path.
func TestTargetedDifferentialFullCorpus(t *testing.T) {
	oracle, err := ScanCorpusWith(Seed, oracleOpts)
	if err != nil {
		t.Fatalf("oracle corpus scan: %v", err)
	}
	for _, cell := range engineCells(t) {
		cs, err := ScanCorpusWith(Seed, cell.opts)
		if err != nil {
			t.Fatalf("%s: corpus scan: %v", cell.name, err)
		}
		if n := cs.IncompleteApps(); n > 0 || len(cs.Apps) != len(oracle.Apps) {
			t.Fatalf("%s: %d of %d apps scanned, %d degraded", cell.name, len(cs.Apps), len(oracle.Apps), n)
		}
		hits := 0
		for i := range oracle.Apps {
			matchOracle(t, cell.name+" "+oracle.Apps[i].Name, oracle.Apps[i], cs.Apps[i])
			hits += cs.Apps[i].Diag.Cache.StoreHits
		}
		if strings.HasPrefix(cell.name, "warm") && hits < len(oracle.Apps) {
			t.Errorf("%s: warm pass hit only %d of %d apps", cell.name, hits, len(oracle.Apps))
		}
	}
}

// TestTargetedDifferentialLazyPath routes the goldens through the byte
// container (apk.Encode → ScanBytes), which decodes lazily and
// materializes only the demanded classes — the path cmd/nchecker and the
// serve endpoint take — in every worker × cache cell. Reports and stats
// must match the oracle's ScanApp of the golden, and some golden must
// actually skip classes (or the lazy path silently degenerated to eager
// decoding).
func TestTargetedDifferentialLazyPath(t *testing.T) {
	apps := mustGoldens(t)
	skipped := 0
	for _, cell := range engineCells(t) {
		nc := core.NewWithOptions(cell.opts)
		for _, a := range apps {
			data, err := apk.Encode(a.App)
			if err != nil {
				t.Fatalf("%s: encode: %v", a.Name, err)
			}
			got, err := nc.ScanBytes(data)
			if err != nil {
				t.Fatalf("%s %s: ScanBytes: %v", cell.name, a.Name, err)
			}
			want := core.NewWithOptions(oracleOpts).ScanApp(a.App)
			matchOracle(t, cell.name+" "+a.Name, resultOf(want), resultOf(got))
			skipped += got.Diagnostics.Targeted.ClassesSkipped
		}
	}
	if skipped == 0 {
		t.Error("no golden skipped a single class; the lazy demand-driven path did no less work than full decoding")
	}
}

// TestTargetedDifferentialPaddedApps pads every golden with inert
// classes to 1×, 10× and 100× its class count (corpus.AddPadding) and
// scans it through the byte container at every worker count: reports and
// stats must match the oracle's scan of the padded app, and the engine
// must decode none of the padding.
func TestTargetedDifferentialPaddedApps(t *testing.T) {
	for _, scale := range []int{1, 10, 100} {
		for _, a := range mustGoldens(t) {
			classes := a.App.Program.NumClasses()
			corpus.AddPadding(a.App, classes*(scale-1))
			data, err := apk.Encode(a.App)
			if err != nil {
				t.Fatalf("%dx %s: encode: %v", scale, a.Name, err)
			}
			want := core.NewWithOptions(oracleOpts).ScanApp(a.App)
			for _, w := range []int{1, 2, 8} {
				label := fmt.Sprintf("%dx %s w%d", scale, a.Name, w)
				got, err := core.NewWithOptions(core.Options{Workers: w}).ScanBytes(data)
				if err != nil {
					t.Fatalf("%s: ScanBytes: %v", label, err)
				}
				matchOracle(t, label, resultOf(want), resultOf(got))
				if d := got.Diagnostics.Targeted.ClassesDecoded; d > classes {
					t.Errorf("%s: decoded %d classes, more than the %d unpadded ones", label, d, classes)
				}
			}
		}
	}
}

// TestTargetedDeterministicAcrossCorpusWorkers: the corpus scan is
// schedule-independent — any worker count yields the same per-app
// reports as the single-worker run.
func TestTargetedDeterministicAcrossCorpusWorkers(t *testing.T) {
	base, err := ScanCorpusWith(Seed, core.Options{Workers: 1})
	if err != nil {
		t.Fatalf("corpus scan: %v", err)
	}
	for _, workers := range []int{4, 16} {
		cs, err := ScanCorpusWith(Seed, core.Options{Workers: workers})
		if err != nil {
			t.Fatalf("corpus scan (w=%d): %v", workers, err)
		}
		for i := range base.Apps {
			if !reflect.DeepEqual(base.Apps[i].Reports, cs.Apps[i].Reports) {
				t.Errorf("w=%d: app %s reports differ from single-worker run", workers, base.Apps[i].Name)
			}
		}
	}
}

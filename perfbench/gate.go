package main

import (
	"context"
	"fmt"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/checkers"
	"repro/internal/core"
	"repro/internal/report"
)

// gateFamily is the checker family the self-test switches off.
const gateFamily = 1

// check is the correctness gate: a scan passes when it decoded, is not
// Incomplete, rendered report text exactly when it has warnings, and its
// per-cause warning counts equal the oracle's. The oracle
// (corpus.OracleApp) derives the counts from the app's generating spec,
// independently of the checkers.
func check(reports []report.Report, incomplete bool, text string, want map[report.Cause]int) error {
	if incomplete {
		return fmt.Errorf("scan is incomplete")
	}
	if (text == "") != (len(reports) == 0) {
		return fmt.Errorf("%d warnings rendered as %d bytes of text", len(reports), len(text))
	}
	got := map[report.Cause]int{}
	for i := range reports {
		got[reports[i].Cause]++
	}
	var diffs []string
	for c, n := range got {
		if want[c] != n {
			diffs = append(diffs, fmt.Sprintf("%s got %d want %d", c, n, want[c]))
		}
	}
	for c, n := range want {
		if _, ok := got[c]; !ok {
			diffs = append(diffs, fmt.Sprintf("%s got 0 want %d", c, n))
		}
	}
	if len(diffs) > 0 {
		sort.Strings(diffs)
		return fmt.Errorf("warnings differ from the oracle: %s", strings.Join(diffs, "; "))
	}
	return nil
}

// gateSelfTest shows the gate can fail. It scans a few apps that the
// oracle expects warnings of gateFamily from, once with every family on
// (the gate must pass) and once with gateFamily switched off through
// Options.Checkers (the gate must count every such scan as failed).
func gateSelfTest(dir string, man *manifest) error {
	const apps = 4
	familyCauses := map[report.Cause]bool{}
	for _, c := range checkers.FamilyCauses(gateFamily) {
		familyCauses[report.Cause(c)] = true
	}
	var picked []input
	for _, in := range man.Apps {
		for c := range in.Expect {
			if familyCauses[c] {
				picked = append(picked, in)
				break
			}
		}
		if len(picked) == apps {
			break
		}
	}
	if len(picked) < apps {
		return fmt.Errorf("only %d apps expect family %d warnings", len(picked), gateFamily)
	}
	without := checkers.AllCheckers() &^ (1 << (gateFamily - 1))
	full := core.NewWithOptions(core.Options{Workers: 1})
	ablated := core.NewWithOptions(core.Options{Workers: 1, Checkers: without})
	if ablated.Options().Checkers.Enabled(gateFamily) {
		return fmt.Errorf("checker set %v still enables family %d", without, gateFamily)
	}
	for _, in := range picked {
		path := filepath.Join(dir, in.File)
		res, err := full.ScanFileContext(context.Background(), path)
		if err != nil {
			return err
		}
		if err := check(res.Reports, res.Incomplete, report.RenderAll(res.Reports), in.Expect); err != nil {
			return fmt.Errorf("%s with every family: %v", in.Name, err)
		}
		res, err = ablated.ScanFileContext(context.Background(), path)
		if err != nil {
			return err
		}
		if check(res.Reports, res.Incomplete, report.RenderAll(res.Reports), in.Expect) == nil {
			return fmt.Errorf("%s without family %d passed the gate", in.Name, gateFamily)
		}
	}
	return nil
}

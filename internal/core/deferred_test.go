package core

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/apk"
	"repro/internal/checkers"
	"repro/internal/corpus"
	"repro/internal/jimple"
)

// TestScanLeavesPaddingDeferred: a scan builds a class object only for
// the classes it looks up. Over padded corpus apps opened with
// apk.DecodeLazy and scanned by checkers.Analyze (every family, with and
// without -icc), no padding class, which no closure rule reaches, has a
// built *Class after the scan (counted through Program.EachBuilt): the
// class-header counterpart of the HasBody guard on the classes a scan
// skips.
func TestScanLeavesPaddingDeferred(t *testing.T) {
	members, err := corpus.GenerateCorpus(2016)
	if err != nil {
		t.Fatal(err)
	}
	pads := []int{200, 271, 333, 399}
	if testing.Short() {
		pads = pads[:1]
	}
	for i, pad := range pads {
		m := members[i*len(members)/len(pads)]
		corpus.AddPadding(m.App, pad)
		data, err := apk.Encode(m.App)
		if err != nil {
			t.Fatal(err)
		}
		prefix := m.App.Manifest.Package + ".pad.Pad"
		for _, icc := range []bool{false, true} {
			name := fmt.Sprintf("%s+pad%d icc=%t", m.Name, pad, icc)
			app, err := apk.DecodeLazy(data)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			nc := NewWithOptions(Options{Workers: 1, EnableICC: icc})
			res := checkers.Analyze(app, nc.reg, nc.opts)
			if res.Incomplete {
				t.Fatalf("%s: scan degraded", name)
			}
			paddingBuilt, built := 0, 0
			app.Program.EachBuilt(func(c *jimple.Class) {
				built++
				if strings.HasPrefix(c.Name, prefix) {
					paddingBuilt++
				}
			})
			if !app.Program.HasOwnClass(fmt.Sprintf("%s%04d", prefix, pad-1)) {
				t.Fatalf("%s: the last padding class is missing; the check would be vacuous", name)
			}
			if paddingBuilt > 0 {
				t.Errorf("%s: the scan built %d padding classes", name, paddingBuilt)
			}
			if built == 0 {
				t.Errorf("%s: the scan built no class; the check would be vacuous", name)
			}
		}
	}
}

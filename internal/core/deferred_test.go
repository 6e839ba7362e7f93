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

// TestScanLeavesPaddingDeferred: a scan decodes the members of only the
// classes it looks up. Over padded corpus apps opened with
// apk.DecodeLazy and scanned by checkers.Analyze (every family, with and
// without -icc), every padding class, which no closure rule reaches,
// still has its members deferred after the scan: the members'
// counterpart of the HasBody guard on the classes a scan skips.
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
			padding, paddingDecoded, decoded := 0, 0, 0
			app.Program.EachOwnHeader(func(c *jimple.Class) {
				isPad := strings.HasPrefix(c.Name, prefix)
				if isPad {
					padding++
				}
				if !c.MembersDeferred() {
					decoded++
					if isPad {
						paddingDecoded++
					}
				}
			})
			if padding != pad {
				t.Fatalf("%s: found %d padding classes, want %d", name, padding, pad)
			}
			if paddingDecoded > 0 {
				t.Errorf("%s: the scan decoded the members of %d padding classes", name, paddingDecoded)
			}
			if decoded == 0 {
				t.Errorf("%s: the scan decoded no class's members; the check would be vacuous", name)
			}
		}
	}
}

package baselayer_test

import (
	"sync"
	"testing"

	"repro/internal/apimodel"
	"repro/internal/baselayer"
	"repro/internal/checkers"
	"repro/internal/corpus"
	"repro/internal/hierarchy"
	"repro/internal/interp"
	"repro/internal/report"
)

// baseState is everything about the shared layer a scan could disturb.
type baseState struct {
	classes, bodiedClasses int
	index                  hierarchy.IndexSizes
}

func snapshot(l *baselayer.Layer) baseState {
	return baseState{
		classes:       l.Program().NumClasses(),
		bodiedClasses: l.Graph().NumClasses(),
		index:         l.Hierarchy().IndexSizes(),
	}
}

// TestConcurrentScansShareBase scans different apps at once through the
// shared base layer (run it under -race): every report must match a
// sequential scan of the same app, and the base's class count and index
// sizes — dispatch memo included — must be unchanged afterwards.
func TestConcurrentScansShareBase(t *testing.T) {
	members, err := corpus.GenerateCorpus(2016)
	if err != nil {
		t.Fatal(err)
	}
	n := 48
	if testing.Short() {
		n = 12
	}
	members = members[:n]
	reg := apimodel.NewRegistry()
	opts := checkers.Options{Workers: 1}

	layer := baselayer.Get()
	before := snapshot(layer)

	// scan runs both consumers of the base: the static pipeline and the
	// dynamic replayer (interp.RunApp overlays the app through
	// NewReplayer).
	scan := func(m *corpus.CorpusApp) (string, int) {
		text := report.RenderAll(checkers.Analyze(m.App, reg, opts).Reports)
		return text, len(interp.RunApp(m.App, interp.NetOffline, 1).Runs)
	}
	wantText, wantRuns := make([]string, n), make([]int, n)
	for i, m := range members {
		wantText[i], wantRuns[i] = scan(m)
	}

	gotText, gotRuns := make([]string, n), make([]int, n)
	var wg sync.WaitGroup
	for i, m := range members {
		wg.Add(1)
		go func(i int, m *corpus.CorpusApp) {
			defer wg.Done()
			gotText[i], gotRuns[i] = scan(m)
		}(i, m)
	}
	wg.Wait()

	for i, m := range members {
		if gotText[i] != wantText[i] {
			t.Errorf("%s: concurrent scan report differs from the sequential one", m.Name)
		}
		if gotRuns[i] != wantRuns[i] {
			t.Errorf("%s: concurrent replay ran %d entries, sequential %d", m.Name, gotRuns[i], wantRuns[i])
		}
	}
	if after := snapshot(layer); after != before {
		t.Errorf("shared base changed under concurrent scans: %+v -> %+v", before, after)
	}
}

package main

import (
	"context"
	"math/rand"
	"path/filepath"
	"time"

	"repro/internal/android"
	"repro/internal/apimodel"
	"repro/internal/apk"
	"repro/internal/callgraph"
	"repro/internal/checkers"
	"repro/internal/core"
	"repro/internal/hierarchy"
	"repro/internal/jimple"
	"repro/internal/report"
)

// scan drives both workloads: each operation scans one container file
// with Checker.ScanFileContext and renders the report text, in the CLI's
// batch split (nproc files at once, one pipeline worker per scan), cache
// off, default engine options.
type scan struct {
	dir     string
	man     *manifest
	checker *core.Checker
}

func newScan(dir string, man *manifest) *scan {
	return &scan{dir: dir, man: man, checker: core.NewWithOptions(core.Options{Workers: 1})}
}

func (s *scan) path(i int) string { return filepath.Join(s.dir, s.man.Apps[i].File) }

// scanOne scans app i from bytes on disk to rendered report text.
func (s *scan) scanOne(i int) (time.Duration, error) {
	start := time.Now()
	res, err := s.checker.ScanFileContext(context.Background(), s.path(i))
	if err != nil {
		return 0, err
	}
	text := report.RenderAll(res.Reports)
	lat := time.Since(start)
	return lat, check(res.Reports, res.Incomplete, text, s.man.Apps[i].Expect)
}

// pass scans every app once, in input order.
func (s *scan) pass() roundResult {
	return runRound(len(s.man.Apps), s.scanOne)
}

const (
	// minRoundOps is the fewest scans in a round: a round is as many
	// passes over the apps as reach it, so the idle tail at a round's
	// end, when one goroutine has no app left, stays a small share of the
	// round, and a round's p90 has a dozen scans beyond it.
	minRoundOps = 128
	// minRounds is the fewest rounds a run measures.
	minRounds = 5
)

// order lists a round's apps: whole passes, each in a seeded order.
func (s *scan) order(rng *rand.Rand) []int {
	var order []int
	for len(order) < minRoundOps {
		order = append(order, rng.Perm(len(s.man.Apps))...)
	}
	return order
}

func (s *scan) round(rng *rand.Rand) (int, opFunc) {
	order := s.order(rng)
	return len(order), func(i int) (time.Duration, error) { return s.scanOne(order[i]) }
}

func (s *scan) tracedRound(rng *rand.Rand, tr *tracer, acc *accum) (int, opFunc) {
	order := s.order(rng)
	return len(order), func(i int) (time.Duration, error) { return s.tracedScan(order[i], tr, acc) }
}

// tracedScan replays app i's layers through their public calls — decode,
// program merge, hierarchy, call graph — then runs the real scan and the
// rendering, recording a span around each. The scan's Diagnostics give
// the split inside the pipeline; with one pipeline worker its stages run
// one after another, so their spans are laid end to end.
func (s *scan) tracedScan(i int, tr *tracer, acc *accum) (time.Duration, error) {
	root := tr.begin()
	t0 := time.Now()
	app, err := apk.ReadFile(s.path(i))
	if err != nil {
		return 0, err
	}
	t1 := time.Now()
	tr.span("apk.decode", root, i, t0, t1)
	acc.add("apk.decode_ms", ms(t1.Sub(t0)), 1)
	replayBuild(app, root, i, tr, acc)

	t2 := time.Now()
	res, err := s.checker.ScanFileContext(context.Background(), s.path(i))
	if err != nil {
		return 0, err
	}
	t3 := time.Now()
	scanSpan := tr.span("core.scan", root, i, t2, t3)
	d := &res.Diagnostics
	// The scan decodes before its pipeline clock starts: the gap before
	// Diagnostics.Total is the open.
	at := t3.Add(-d.Total)
	tr.span("core.open", scanSpan, i, t2, at)
	for _, st := range d.Stages {
		tr.span("stage."+st.Name, scanSpan, i, at, at.Add(st.Duration))
		at = at.Add(st.Duration)
	}
	addDiagnostics(acc, d)

	text := report.RenderAll(res.Reports)
	t4 := time.Now()
	tr.span("report.render", root, i, t3, t4)
	acc.add("report.render_ms", ms(t4.Sub(t3)), 1)
	tr.end(root, i, t0, t4)
	return t4.Sub(t0), check(res.Reports, res.Incomplete, text, s.man.Apps[i].Expect)
}

// replayBuild replays the scan's build layers on a decoded app: the merge
// of app, framework and library stubs into one program, the class
// hierarchy and the call graph, as the pipeline's build stage calls them
// with default options.
func replayBuild(app *apk.App, parent, id int, tr *tracer, acc *accum) {
	t0 := time.Now()
	prog := jimple.NewProgram()
	prog.Merge(app.Program)
	prog.Merge(android.Framework())
	prog.Merge(apimodel.Stubs())
	t1 := time.Now()
	h := hierarchy.New(prog)
	t2 := time.Now()
	g := callgraph.BuildWith(h, app.Manifest, callgraph.Options{})
	t3 := time.Now()
	tr.span("jimple.merge", parent, id, t0, t1)
	tr.span("hierarchy.build", parent, id, t1, t2)
	tr.span("callgraph.build", parent, id, t2, t3)
	acc.add("jimple.merge_ms", ms(t1.Sub(t0)), 1)
	acc.add("hierarchy.build_ms", ms(t2.Sub(t1)), 1)
	acc.add("callgraph.build_ms", ms(t3.Sub(t2)), 1)
	acc.add("callgraph.edges", float64(g.NumEdges()), 1)
}

// addDiagnostics folds one analyzed scan's stage times and analysis
// counters into acc, as means per scan.
func addDiagnostics(acc *accum, d *core.Diagnostics) {
	var families time.Duration
	for _, st := range d.Stages {
		switch {
		case st.Name == "build":
			acc.add("checkers.build_ms", ms(st.Duration), 1)
		case st.Name == "summaries":
			acc.add("checkers.summaries_ms", ms(st.Duration), 1)
		case st.Name == "discover":
			acc.add("checkers.discover_ms", ms(st.Duration), 1)
		case checkers.FamilyOfStage(st.Name) != 0:
			families += st.Duration
		}
	}
	acc.add("checkers.families_ms", ms(families), 1)
	c := d.Cache
	acc.add("dataflow.summaries_computed", float64(c.SummariesComputed), 1)
	acc.add("dataflow.fixpoint_iters", float64(c.SummaryFixpointIters), 1)
	acc.add("checkers.cfg_hit_ratio", float64(c.CFGHits()), float64(c.CFGRequests))
}

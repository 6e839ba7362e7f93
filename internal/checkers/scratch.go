package checkers

import (
	"sync"
	"testing"

	"repro/internal/arena"
	"repro/internal/callgraph"
	"repro/internal/cfg"
	"repro/internal/dataflow"
	"repro/internal/hierarchy"
	"repro/internal/jimple"
	"repro/internal/report"
)

// scanScratch is a scan's working memory that nothing in its Result
// reaches: the stages' reports before the sort copies them into the
// Result, their sort keys and order, the request sites, the call-stack
// search's arrays, the overlay hierarchy's indexes, the call graph's
// tables, the analysis context and its per-method artifact table, and
// the kernel memory the artifacts, must-precede and summaries are carved
// from.
// A scan takes one from scratchPool when it starts and gives it back when
// it ends, after the cache write, so a steady stream of scans stops
// allocating it. A scan runs on one goroutine, so the scratch takes no
// locks.
type scanScratch struct {
	// found is the scan's findings: every stage appends its reports (with
	// the method each is located in) and counts its stats into it.
	found findings
	keys  []string
	order []int32
	path  callgraph.PathScratch

	sites arena.Slab[requestSite]
	hier  hierarchy.Scratch
	graph callgraph.Scratch
	actx  AnalysisContext
	art   []methodArtifacts
	cfgs  cfg.Scratch
	flows dataflow.Scratch
}

// artifacts returns the scratch's artifact table resized to n empty
// entries.
func (s *scanScratch) artifacts(n int) []methodArtifacts {
	if cap(s.art) < n {
		s.art = make([]methodArtifacts, n)
	}
	s.art = s.art[:n]
	clear(s.art)
	return s.art
}

// scratchPool holds the scratch of finished scans.
var scratchPool = sync.Pool{New: func() any { return new(scanScratch) }}

// newSite returns a copy of site carved from the scan's scratch.
func (a *analysis) newSite(site requestSite) *requestSite {
	p := a.scratch.sites.New()
	*p = site
	return p
}

// maxPooledReports and maxPooledMethods cap the report arrays and the
// artifact table a pooled scratch keeps: a scan past them drops them
// rather than hold a large app's arrays against the heap goal of the
// small scans after it.
const (
	maxPooledReports = 256
	maxPooledMethods = 256
)

// getScratch returns a scratch for a new scan.
func getScratch() *scanScratch { return scratchPool.Get().(*scanScratch) }

// putScratch gives s back to the pool, with everything it holds cleared
// so the pool keeps no scan's app alive. In a test binary the arrays are
// filled with junk instead, so a Result that aliases them reads junk and
// fails its suite rather than pass on memory that happens to hold its
// old contents.
func putScratch(s *scanScratch) {
	f := &s.found
	recycle(f.reports, junkReport)
	recycle(f.methods, junkArtifacts.m)
	recycle(s.keys, arena.Junk)
	f.stats = Stats{}
	if cap(f.reports) > maxPooledReports {
		f.reports, f.methods, s.keys, s.order = nil, nil, nil, nil
	}
	f.reports, f.methods, s.keys, s.order = f.reports[:0], f.methods[:0], s.keys[:0], s.order[:0]
	s.path.Reset()
	recycle(s.art, junkArtifacts)
	if cap(s.art) > maxPooledMethods {
		s.art = nil
	}
	s.actx = AnalysisContext{}
	s.sites.Reset(func(r *requestSite) { *r = junkSite })
	s.hier.Reset()
	s.graph.Reset()
	s.cfgs.Reset()
	s.flows.Reset()
	scratchPool.Put(s)
}

// recycle clears s, or in a test binary fills it with junk to its
// capacity. Past its length s is zero already in production: every scan
// recycles what it used.
func recycle[T any](s []T, junk T) {
	if !testing.Testing() {
		clear(s)
		return
	}
	s = s[:cap(s)]
	for i := range s {
		s[i] = junk
	}
}

// The junk a test binary writes over recycled memory before it is
// pooled.
var (
	junkReport = report.Report{
		Cause: arena.Junk, Message: arena.Junk, FixSuggestion: arena.Junk,
		Location:  report.Loc{Method: jimple.Sig{Class: arena.Junk, Name: arena.Junk}, Stmt: -1},
		CallStack: []report.Frame{{Method: arena.Junk, Site: -1}},
	}
	junkArtifacts = methodArtifacts{m: &jimple.Method{Sig: junkReport.Location.Method}, tried: ^artifact(0)}
	junkSite      = requestSite{method: junkArtifacts.m, stmt: -1, entry: -1, component: arena.Junk, httpMethod: arena.Junk}
)

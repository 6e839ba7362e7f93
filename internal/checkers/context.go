package checkers

import (
	"repro/internal/callgraph"
	"repro/internal/cfg"
	"repro/internal/dataflow"
	"repro/internal/jimple"
)

// AnalysisContext is the per-scan memoization layer shared by every
// pipeline stage: it lazily computes and caches the per-method analysis
// artifacts (CFG, dominators, natural loops, reaching definitions,
// constant propagation, slicer) plus the per-entry reachability sets
// behind one accessor API. A scan runs on one goroutine, so the context
// takes no locks. Each artifact is computed at most once per method per
// scan — the cache counters in Diagnostics prove it — and is tried only
// once: a computation that panicked is not retried, and later requests
// get the zero value.
type AnalysisContext struct {
	cg *callgraph.Graph

	// art holds the per-method artifacts by call-graph method id.
	art []methodArtifacts

	// stats is the scan's CacheStats, counted into directly.
	stats *CacheStats

	entriesTried bool
	entryReach   []callgraph.Bitset // parallel to cg.Entries()

	// summarize is installed by the pipeline's build stage (nil when the
	// scan is intraprocedural); the SummarySet is then computed at most
	// once, on first consult. A failed computation leaves sumSet nil and
	// every consumer degrades to intraprocedural behavior.
	summarize func() (*dataflow.SummarySet, error)
	sumTried  bool
	sumSet    *dataflow.SummarySet
}

// artifact names one per-method artifact in methodArtifacts.tried.
type artifact uint8

const (
	artCFG artifact = 1 << iota
	artReachDefs
	artConstProp
	artDominators
	artLoops
	artSlicer
	artFeasible
	artCheckStructure
)

// methodArtifacts holds one method's lazily-built artifacts.
type methodArtifacts struct {
	m     *jimple.Method // nil until the first request
	tried artifact       // artifacts whose computation has started

	cfg        *cfg.Graph
	rd         *dataflow.ReachDefs
	cp         *dataflow.ConstProp
	dom        []int
	loops      []*cfg.Loop
	slicer     *dataflow.Slicer
	feas       *cfg.Graph
	checkDom   []int // of the method's check graph (analysis.checkGraph)
	checkLoops []*cfg.Loop
}

// try reports whether artifact k is still to be computed and marks it
// tried, before the computation runs, so a computation that panics is
// never retried.
func (a *methodArtifacts) try(k artifact) bool {
	if a.tried&k != 0 {
		return false
	}
	a.tried |= k
	return true
}

// newAnalysisContext prepares an empty context over the scan's call graph
// that counts into stats.
func newAnalysisContext(cg *callgraph.Graph, stats *CacheStats) *AnalysisContext {
	return &AnalysisContext{cg: cg, art: make([]methodArtifacts, cg.NumIDs()), stats: stats}
}

// arts returns m's artifacts, by its call-graph id: every method a stage
// analyzes is a body-bearing method of the scan's call graph. A method
// that is not the graph's method of any id (a foreign method, or the
// loser of a duplicated key) gets fresh artifacts, computed per request.
func (c *AnalysisContext) arts(m *jimple.Method) *methodArtifacts {
	id, ok := c.cg.IDOf(m)
	if !ok || c.cg.MethodOf(id) != m {
		return &methodArtifacts{m: m}
	}
	a := &c.art[id]
	if a.m == nil {
		a.m = m
		c.stats.Methods++
	}
	return a
}

// CFG returns the memoized control-flow graph of m.
func (c *AnalysisContext) CFG(m *jimple.Method) *cfg.Graph {
	a := c.arts(m)
	c.stats.CFGRequests++
	if a.try(artCFG) {
		c.stats.CFGComputed++
		a.cfg = cfg.New(m)
	}
	return a.cfg
}

// ReachDefs returns the memoized reaching-definitions result of m.
func (c *AnalysisContext) ReachDefs(m *jimple.Method) *dataflow.ReachDefs {
	a := c.arts(m)
	c.stats.ReachDefsRequests++
	if a.try(artReachDefs) {
		c.stats.ReachDefsComputed++
		a.rd = dataflow.NewReachDefs(c.CFG(m))
	}
	return a.rd
}

// ConstProp returns the memoized constant-propagation engine of m.
func (c *AnalysisContext) ConstProp(m *jimple.Method) *dataflow.ConstProp {
	a := c.arts(m)
	c.stats.ConstPropRequests++
	if a.try(artConstProp) {
		c.stats.ConstPropComputed++
		a.cp = dataflow.NewConstProp(c.ReachDefs(m))
	}
	return a.cp
}

// Dominators returns the memoized immediate-dominator array of m's CFG.
func (c *AnalysisContext) Dominators(m *jimple.Method) []int {
	a := c.arts(m)
	c.stats.DominatorsRequests++
	if a.try(artDominators) {
		c.stats.DominatorsComputed++
		a.dom = c.CFG(m).Dominators()
	}
	return a.dom
}

// Loops returns the memoized natural loops of m, built from the cached
// dominator tree.
func (c *AnalysisContext) Loops(m *jimple.Method) []*cfg.Loop {
	a := c.arts(m)
	c.stats.LoopsRequests++
	if a.try(artLoops) {
		c.stats.LoopsComputed++
		a.loops = c.CFG(m).NaturalLoopsWith(c.Dominators(m))
	}
	return a.loops
}

// Slicer returns the memoized backward slicer of m (shares the cached CFG
// and reaching-defs result).
func (c *AnalysisContext) Slicer(m *jimple.Method) *dataflow.Slicer {
	a := c.arts(m)
	c.stats.SlicerRequests++
	if a.try(artSlicer) {
		c.stats.SlicersComputed++
		a.slicer = dataflow.NewSlicer(c.CFG(m), c.ReachDefs(m))
	}
	return a.slicer
}

// FeasibleCFG returns m's CFG with statically-infeasible branch edges
// removed (path-feasibility pruning): constant propagation evaluates each
// if condition, and the untaken outcome's edge of a constant condition is
// dropped. Nodes only reachable through dead edges become unreachable —
// vacuously satisfied in must-analyses and untainted in may-analyses, so
// warnings whose only witness paths were statically false disappear. The
// pruned graph shares node indexing with CFG(m) and is memoized.
func (c *AnalysisContext) FeasibleCFG(m *jimple.Method) *cfg.Graph {
	a := c.arts(m)
	c.stats.FeasibleCFGRequests++
	if a.try(artFeasible) {
		c.stats.FeasibleCFGComputed++
		g := c.CFG(m)
		dead := dataflow.InfeasibleEdges(g, c.ConstProp(m))
		c.stats.PrunedEdges += len(dead)
		a.feas = g.WithoutEdges(dead)
	}
	return a.feas
}

// checkStructure returns the dominator tree and natural loops of g, m's
// check graph — FeasibleCFG(m), or CFG(m) in an intraprocedural scan
// (analysis.checkGraph) — memoized per method: a scan passes every
// request for m the same graph. They are not counted: the dominator and
// loop counters count the unpruned graph's.
func (c *AnalysisContext) checkStructure(m *jimple.Method, g *cfg.Graph) ([]int, []*cfg.Loop) {
	a := c.arts(m)
	if a.try(artCheckStructure) {
		a.checkDom = g.Dominators()
		a.checkLoops = g.NaturalLoopsWith(a.checkDom)
	}
	return a.checkDom, a.checkLoops
}

// configureSummaries installs the interprocedural summary producer; the
// pipeline's build stage calls it exactly once, before any stage runs.
func (c *AnalysisContext) configureSummaries(f func() (*dataflow.SummarySet, error)) {
	c.summarize = f
}

// Summaries returns the scan's interprocedural summary set, computing it
// on first use, or nil when the scan is intraprocedural or the
// computation failed (consumers then degrade to intraprocedural facts).
// The producer runs at most once: one that panicked is not retried.
func (c *AnalysisContext) Summaries() *dataflow.SummarySet {
	if c.sumTried || c.summarize == nil {
		return c.sumSet
	}
	c.sumTried = true
	set, err := c.summarize()
	if err != nil || set == nil {
		return nil
	}
	c.sumSet = set
	ss := set.Stats()
	c.stats.SummariesComputed = ss.Methods
	c.stats.SummarySCCs = ss.SCCs
	c.stats.SummaryFixpointIters = ss.FixpointIterations
	return set
}

// EntriesReaching returns the entry points from which the method with
// call-graph id id is reachable (none for id -1). Each entry's reach set is
// computed once per scan, on the first query.
func (c *AnalysisContext) EntriesReaching(id int32) []callgraph.Entry {
	if !c.entriesTried {
		c.entriesTried = true
		c.entryReach = c.cg.NewBitsets(len(c.cg.Entries()))
		for i, reach := range c.entryReach {
			c.cg.ReachInto(reach, c.cg.EntryID(i))
		}
	}
	if id < 0 {
		return nil
	}
	var out []callgraph.Entry
	for i, e := range c.cg.Entries() {
		if c.entryReach[i].Has(id) {
			out = append(out, e)
		}
	}
	return out
}

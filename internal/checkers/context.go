package checkers

import (
	"sync"
	"sync/atomic"

	"repro/internal/callgraph"
	"repro/internal/cfg"
	"repro/internal/dataflow"
	"repro/internal/jimple"
)

// AnalysisContext is the per-scan memoization layer shared by every
// pipeline stage: it lazily computes and caches the per-method analysis
// artifacts (CFG, dominators, natural loops, reaching definitions,
// constant propagation, slicer) plus the per-entry reachability sets
// behind one accessor API. All accessors are safe for concurrent use, and
// each artifact is computed at most once per method per scan — the cache
// counters in Diagnostics prove it.
type AnalysisContext struct {
	cg *callgraph.Graph

	// art holds the per-method artifacts by call-graph method id; mu
	// guards each entry's first claim and the methods count.
	mu      sync.Mutex
	art     []methodArtifacts
	methods int

	entriesOnce sync.Once
	entryReach  []callgraph.Bitset // parallel to cg.Entries()

	// summarize is installed by the pipeline's build stage (nil when the
	// scan is intraprocedural); the SummarySet is then computed at most
	// once, on first consult, behind sumOnce. A failed computation leaves
	// sumSet nil and every consumer degrades to intraprocedural behavior.
	summarize func() (*dataflow.SummarySet, error)
	sumOnce   sync.Once
	sumSet    *dataflow.SummarySet

	cfgRequests, cfgComputed       atomic.Int64
	rdRequests, rdComputed         atomic.Int64
	cpRequests, cpComputed         atomic.Int64
	domRequests, domComputed       atomic.Int64
	loopRequests, loopComputed     atomic.Int64
	slicerRequests, slicerComputed atomic.Int64
	sumRequests                    atomic.Int64
	feasRequests, feasComputed     atomic.Int64
	prunedEdges                    atomic.Int64
}

// methodArtifacts holds one method's lazily-built artifacts. Each field
// is guarded by its own sync.Once so concurrent stages requesting the
// same artifact block on a single computation.
type methodArtifacts struct {
	m *jimple.Method // nil until the first request

	cfgOnce sync.Once
	cfg     *cfg.Graph

	rdOnce sync.Once
	rd     *dataflow.ReachDefs

	cpOnce sync.Once
	cp     *dataflow.ConstProp

	domOnce sync.Once
	dom     []int

	loopsOnce sync.Once
	loops     []*cfg.Loop

	slicerOnce sync.Once
	slicer     *dataflow.Slicer

	feasOnce sync.Once
	feas     *cfg.Graph

	// The dominators and natural loops of the method's check graph
	// (analysis.checkGraph), for the stale-check checker.
	checkOnce  sync.Once
	checkDom   []int
	checkLoops []*cfg.Loop
}

// newAnalysisContext prepares an empty context over the scan's call graph.
func newAnalysisContext(cg *callgraph.Graph) *AnalysisContext {
	return &AnalysisContext{cg: cg, art: make([]methodArtifacts, cg.NumIDs())}
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
	c.mu.Lock()
	if a.m == nil {
		a.m = m
		c.methods++
	}
	c.mu.Unlock()
	return a
}

// CFG returns the memoized control-flow graph of m.
func (c *AnalysisContext) CFG(m *jimple.Method) *cfg.Graph {
	a := c.arts(m)
	c.cfgRequests.Add(1)
	a.cfgOnce.Do(func() {
		c.cfgComputed.Add(1)
		a.cfg = cfg.New(m)
	})
	return a.cfg
}

// ReachDefs returns the memoized reaching-definitions result of m.
func (c *AnalysisContext) ReachDefs(m *jimple.Method) *dataflow.ReachDefs {
	a := c.arts(m)
	c.rdRequests.Add(1)
	a.rdOnce.Do(func() {
		c.rdComputed.Add(1)
		a.rd = dataflow.NewReachDefs(c.CFG(m))
	})
	return a.rd
}

// ConstProp returns the memoized constant-propagation engine of m.
func (c *AnalysisContext) ConstProp(m *jimple.Method) *dataflow.ConstProp {
	a := c.arts(m)
	c.cpRequests.Add(1)
	a.cpOnce.Do(func() {
		c.cpComputed.Add(1)
		a.cp = dataflow.NewConstProp(c.ReachDefs(m))
	})
	return a.cp
}

// Dominators returns the memoized immediate-dominator array of m's CFG.
func (c *AnalysisContext) Dominators(m *jimple.Method) []int {
	a := c.arts(m)
	c.domRequests.Add(1)
	a.domOnce.Do(func() {
		c.domComputed.Add(1)
		a.dom = c.CFG(m).Dominators()
	})
	return a.dom
}

// Loops returns the memoized natural loops of m, built from the cached
// dominator tree.
func (c *AnalysisContext) Loops(m *jimple.Method) []*cfg.Loop {
	a := c.arts(m)
	c.loopRequests.Add(1)
	a.loopsOnce.Do(func() {
		c.loopComputed.Add(1)
		a.loops = c.CFG(m).NaturalLoopsWith(c.Dominators(m))
	})
	return a.loops
}

// Slicer returns the memoized backward slicer of m (shares the cached CFG
// and reaching-defs result).
func (c *AnalysisContext) Slicer(m *jimple.Method) *dataflow.Slicer {
	a := c.arts(m)
	c.slicerRequests.Add(1)
	a.slicerOnce.Do(func() {
		c.slicerComputed.Add(1)
		a.slicer = dataflow.NewSlicer(c.CFG(m), c.ReachDefs(m))
	})
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
	c.feasRequests.Add(1)
	a.feasOnce.Do(func() {
		c.feasComputed.Add(1)
		g := c.CFG(m)
		dead := dataflow.InfeasibleEdges(g, c.ConstProp(m))
		c.prunedEdges.Add(int64(len(dead)))
		a.feas = g.WithoutEdges(dead)
	})
	return a.feas
}

// checkStructure returns the dominator tree and natural loops of g, m's
// check graph — FeasibleCFG(m), or CFG(m) in an intraprocedural scan
// (analysis.checkGraph) — memoized per method: a scan passes every
// request for m the same graph. They are not counted: the dominator and
// loop counters count the unpruned graph's.
func (c *AnalysisContext) checkStructure(m *jimple.Method, g *cfg.Graph) ([]int, []*cfg.Loop) {
	a := c.arts(m)
	a.checkOnce.Do(func() {
		a.checkDom = g.Dominators()
		a.checkLoops = g.NaturalLoopsWith(a.checkDom)
	})
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
func (c *AnalysisContext) Summaries() *dataflow.SummarySet {
	c.sumOnce.Do(func() {
		if c.summarize == nil {
			return
		}
		set, err := c.summarize()
		if err == nil {
			c.sumSet = set
		}
	})
	return c.sumSet
}

// EntriesReaching returns the entry points from which the method with
// call-graph id id is reachable (none for id -1). Each entry's reach set is
// computed once per scan, on the first query.
func (c *AnalysisContext) EntriesReaching(id int32) []callgraph.Entry {
	c.entriesOnce.Do(func() {
		c.entryReach = c.cg.NewBitsets(len(c.cg.Entries()))
		for i, reach := range c.entryReach {
			c.cg.ReachInto(reach, c.cg.EntryID(i))
		}
	})
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

// fillCacheStats writes the context's counters into the scan's
// CacheStats (the store counters there belong to the cache stages).
func (c *AnalysisContext) fillCacheStats(stats *CacheStats) {
	c.mu.Lock()
	stats.Methods = c.methods
	c.mu.Unlock()
	stats.CFGComputed = int(c.cfgComputed.Load())
	stats.CFGRequests = int(c.cfgRequests.Load())
	stats.ReachDefsComputed = int(c.rdComputed.Load())
	stats.ReachDefsRequests = int(c.rdRequests.Load())
	stats.ConstPropComputed = int(c.cpComputed.Load())
	stats.ConstPropRequests = int(c.cpRequests.Load())
	stats.DominatorsComputed = int(c.domComputed.Load())
	stats.DominatorsRequests = int(c.domRequests.Load())
	stats.LoopsComputed = int(c.loopComputed.Load())
	stats.LoopsRequests = int(c.loopRequests.Load())
	stats.SlicersComputed = int(c.slicerComputed.Load())
	stats.SlicerRequests = int(c.slicerRequests.Load())
	stats.SummaryRequests = int(c.sumRequests.Load())
	stats.FeasibleCFGComputed = int(c.feasComputed.Load())
	stats.FeasibleCFGRequests = int(c.feasRequests.Load())
	stats.PrunedEdges = int(c.prunedEdges.Load())
	if set := c.sumSet; set != nil {
		ss := set.Stats()
		stats.SummariesComputed = ss.Methods
		stats.SummarySCCs = ss.SCCs
		stats.SummaryFixpointIters = ss.FixpointIterations
	}
}

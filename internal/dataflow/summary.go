package dataflow

import (
	"slices"
	"sort"
	"strings"

	"repro/internal/callgraph"
	"repro/internal/cfg"
	"repro/internal/jimple"
)

// This file implements the summary-based interprocedural taint engine:
// per-method transfer relations over the method's inputs (receiver +
// parameters), computed bottom-up over the call graph's SCC condensation
// with a fixpoint for recursive cycles. Checkers consult a callee's
// summary at the call site instead of stopping at the method boundary —
// the "backward to the allocation, forward over the aliases" tracking of
// paper §4.4.1 and the helper-method response flows of §4.4.4, done once
// per method instead of once per call site (the BackDroid-style targeted
// analysis ROADMAP's scale goal asks for).

// maxSummaryInputs bounds the tracked inputs per method. Input token 0 is
// the receiver, token 1+i is parameter i; tokens at or beyond the bound
// are ignored (a 64-bit mask per fact keeps the transfer relations flat).
const maxSummaryInputs = 64

// summaryFixpointBound caps the iteration count within one recursive SCC.
// All summary facts grow monotonically, so iteration always converges;
// the bound is a safety net against pathological cycles, and hitting it
// only under-reports facts (deterministically).
const summaryFixpointBound = 16

func bit(tok int) uint64 {
	if tok < 0 || tok >= maxSummaryInputs {
		return 0
	}
	return uint64(1) << uint(tok)
}

// SummaryArg is one pre-evaluated call argument carried in a SummaryCall:
// constants are folded in the defining method's own context, because a
// caller cannot run constant propagation inside another method's body.
type SummaryArg struct {
	Known bool
	V     int64
}

// SummaryCall records one call discovered through a summary.
type SummaryCall struct {
	Callee jimple.Sig
	Args   []SummaryArg
}

// TaintSummary is one method's transfer relation over its input tokens
// (0 = receiver, 1+i = parameter i). Masks are input-token bitsets.
type TaintSummary struct {
	// Inputs is the tracked token count (1 + len(params), capped).
	Inputs int

	// RetFrom is the mask of inputs the return value may alias or derive
	// from.
	RetFrom uint64
	// StateFrom[k] is the mask of inputs whose values may be stored into
	// input k's object state (field stores, transitively through callees).
	StateFrom []uint64
	// Escapes is the mask of inputs whose value may escape into a static
	// field or the field of an untracked object.
	Escapes uint64
	// Uses is the mask of inputs that are consulted: a method invoked on
	// them, an instanceof test, or being passed into unsummarized code —
	// here or in any summarized callee.
	Uses uint64
	// ValidatedAllPaths is the mask of inputs validity-checked (a
	// SummaryConfig.IsValidityCheck call or a null test on an alias) on
	// every entry→exit path.
	ValidatedAllPaths uint64
	// UncheckedUse is the mask of inputs whose payload is read (a
	// non-check call on an alias) on some path with no prior validity
	// check.
	UncheckedUse uint64

	// CallsOn[k] lists the calls — here or in summarized callees — whose
	// receiver may alias input k, deduplicated and sorted.
	CallsOn [][]SummaryCall
	// CallsOnRet lists the calls on objects the method allocates and
	// returns (the factory-helper pattern: the caller only ever sees the
	// returned alias).
	CallsOnRet []SummaryCall
}

// UsesToken reports whether input token tok is consulted (see Uses).
func (s *TaintSummary) UsesToken(tok int) bool { return s.Uses&bit(tok) != 0 }

// SummaryConfig parameterizes summary computation.
type SummaryConfig struct {
	// IsValidityCheck classifies a call as a response-validity check for
	// the UncheckedUse/ValidatedAllPaths facts. nil means only null tests
	// count as checks.
	IsValidityCheck func(jimple.Sig) bool
	// CFG, ReachDefs and ConstProp supply per-method artifacts so callers
	// can share a scan-wide cache; nil fields build fresh artifacts.
	CFG       CFGProvider
	ReachDefs func(*jimple.Method) *ReachDefs
	ConstProp func(*jimple.Method) *ConstProp
	// Cancel is polled between method computations; a non-nil return
	// aborts the remaining work and ComputeSummaries returns the error
	// (deadline cooperation for fault-tolerant scans).
	Cancel func() error
	// Seeds supplies already-converged summaries by method key (the
	// persistent scan cache's partial hits). A seeded method is not
	// recomputed: its summary enters the set as-is and its callers build
	// on it. Seeds must be the exact values a cold run would converge to
	// for the same bodies — the cache's content-addressed keys guarantee
	// that. Inside a recursive SCC, seeds are only kept when the whole
	// component is seeded; a partially seeded cycle is recomputed from
	// scratch (a mid-cycle seed is only trustworthy alongside the
	// co-converged values of its cycle peers).
	Seeds map[string]*TaintSummary
	// Roots, when non-nil, restricts the computation to the sub-condensation
	// demanded by the given method keys: only SCCs inside the forward
	// synchronous-call closure of Roots (intersected with the method set)
	// are condensed and summarized. Checkers only ever consult summaries
	// from a root method's call sites, and a callee's converged summary
	// depends only on its own forward closure, so every consulted value is
	// identical to the whole-set computation's. nil means all methods
	// (a non-nil empty slice computes nothing).
	Roots []string
}

func (c *SummaryConfig) cfg(m *jimple.Method) *cfg.Graph {
	if c.CFG != nil {
		return c.CFG(m)
	}
	return cfg.New(m)
}

func (c *SummaryConfig) reachDefs(m *jimple.Method, g *cfg.Graph) *ReachDefs {
	if c.ReachDefs != nil {
		return c.ReachDefs(m)
	}
	return NewReachDefs(g)
}

func (c *SummaryConfig) constProp(m *jimple.Method, rd *ReachDefs) *ConstProp {
	if c.ConstProp != nil {
		return c.ConstProp(m)
	}
	return NewConstProp(rd)
}

// SummaryStats describes one summary computation for diagnostics.
type SummaryStats struct {
	Methods            int // methods summarized
	SCCs               int // strongly connected components processed
	MaxSCC             int // size of the largest (recursive) SCC
	FixpointIterations int // extra passes spent converging recursive SCCs
	Seeded             int // summaries taken from SummaryConfig.Seeds
}

// SummarySet holds the computed summaries of one scan. Lookups are safe
// for concurrent use once ComputeSummaries returns.
type SummarySet struct {
	sums  map[string]*TaintSummary // by method key: the cache boundary
	byID  []*TaintSummary          // by call-graph method id
	stats SummaryStats
}

// Of returns the summary of the method with the given signature key, or
// nil when the method was not in the summarized set.
func (s *SummarySet) Of(key string) *TaintSummary {
	if s == nil {
		return nil
	}
	return s.sums[key]
}

// OfID returns the summary of the call-graph method id, or nil when the
// method was not in the summarized set.
func (s *SummarySet) OfID(id int32) *TaintSummary {
	if s == nil || int(id) >= len(s.byID) {
		return nil
	}
	return s.byID[id]
}

// Stats returns the computation statistics.
func (s *SummarySet) Stats() SummaryStats { return s.stats }

// SummaryResolver maps a call site (statement index in the analyzed
// method) to the summaries of its possible callees. Checkers build one
// per method from the call graph and a SummarySet.
type SummaryResolver func(site int) []*TaintSummary

// ComputeSummaries builds taint summaries for methods, bottom-up over the
// SCC condensation of their mutual (synchronous) call edges in cg, with a
// bounded fixpoint inside each recursive SCC. The result is deterministic:
// methods are processed in sorted-key order and every summary list is
// deduplicated and sorted. On cancellation the partial set built so far is
// returned along with the error.
//
// The methods are numbered once, in sorted-key order; the closure, the
// condensation and the fixpoint run over those numbers and the graph's
// method ids, and keys are read from the graph's key table.
func ComputeSummaries(cg *callgraph.Graph, methods []*jimple.Method, conf SummaryConfig) (*SummarySet, error) {
	b := &summaryBuilder{
		cg:   cg,
		conf: conf,
		loc:  make([]int32, cg.NumIDs()),
		set:  &SummarySet{},
	}
	for i := range b.loc {
		b.loc[i] = -1
	}
	var extra map[string]bool // keys of methods the graph does not hold
	for _, m := range methods {
		id, ok := cg.IDOf(m)
		if !ok {
			id, ok = cg.ID(m.Sig.Key())
		}
		if ok {
			if b.loc[id] >= 0 {
				continue // a repeated key: the first method wins
			}
			b.loc[id] = 0 // seen; numbered after the sort
			b.nodes = append(b.nodes, sumNode{key: cg.Key(id), id: id, m: m})
			continue
		}
		k := m.Sig.Key()
		if extra[k] {
			continue
		}
		if extra == nil {
			extra = make(map[string]bool)
		}
		extra[k] = true
		b.nodes = append(b.nodes, sumNode{key: k, id: -1, m: m})
	}
	slices.SortFunc(b.nodes, func(x, y sumNode) int { return strings.Compare(x.key, y.key) })
	for i, n := range b.nodes {
		if n.id >= 0 {
			b.loc[n.id] = int32(i)
		}
	}
	b.sums = make([]*TaintSummary, len(b.nodes))
	b.seeded = make([]bool, len(b.nodes))
	order := make([]int32, len(b.nodes))
	for i := range order {
		order[i] = int32(i)
	}
	if conf.Roots != nil {
		order = b.demandedClosure(order, conf.Roots)
	}
	for _, i := range order {
		if sum := conf.Seeds[b.nodes[i].key]; sum != nil {
			b.sums[i] = sum
			b.seeded[i] = true
			b.set.stats.Seeded++
		}
	}
	sccs := b.condense(order)
	b.set.stats.SCCs = len(sccs)
	for _, scc := range sccs {
		if len(scc) > b.set.stats.MaxSCC {
			b.set.stats.MaxSCC = len(scc)
		}
		if err := b.computeSCC(scc); err != nil {
			b.finish()
			return b.set, err
		}
	}
	b.finish()
	return b.set, nil
}

// sumNode is one summarized method: its key, its graph id (-1 when the
// graph does not hold it, so it has no call edges) and the method.
type sumNode struct {
	key string
	id  int32
	m   *jimple.Method
}

type summaryBuilder struct {
	cg   *callgraph.Graph
	conf SummaryConfig
	set  *SummarySet

	nodes  []sumNode       // sorted by key; a node's index is its number
	loc    []int32         // graph id -> node number, -1 outside the set
	sums   []*TaintSummary // by node number
	seeded []bool          // by node number: the summary came from conf.Seeds

	// Scratch reused across methods by aliasFixpoint.
	arena    []aliasFact
	cur, tmp aliasRow
	rows     []aliasRow
	work     []int
	inWork   []bool
}

// finish publishes the summaries computed so far into the set.
func (b *summaryBuilder) finish() {
	b.set.sums = make(map[string]*TaintSummary, len(b.nodes))
	b.set.byID = make([]*TaintSummary, b.cg.NumIDs())
	for i, sum := range b.sums {
		if sum == nil {
			continue
		}
		n := b.nodes[i]
		b.set.sums[n.key] = sum
		if n.id >= 0 {
			b.set.byID[n.id] = sum
		}
	}
	b.set.stats.Methods = len(b.set.sums)
}

// callees calls fn on the node number of every synchronous callee of node
// i inside the set, in edge order (repeats included).
func (b *summaryBuilder) callees(i int32, fn func(site int, callee int32)) {
	id := b.nodes[i].id
	if id < 0 {
		return
	}
	for _, e := range b.cg.Out(id) {
		if e.Kind != callgraph.EdgeCall {
			continue
		}
		if c := b.loc[e.CalleeID]; c >= 0 {
			fn(e.Site, c)
		}
	}
}

// demandedClosure filters the sorted node list down to the forward EdgeCall
// closure of the roots within the set, preserving the sorted order.
func (b *summaryBuilder) demandedClosure(order []int32, roots []string) []int32 {
	want := make([]bool, len(b.nodes))
	var stack []int32
	for _, r := range roots {
		i, ok := slices.BinarySearchFunc(b.nodes, r, func(n sumNode, k string) int { return strings.Compare(n.key, k) })
		if ok && !want[i] {
			want[i] = true
			stack = append(stack, int32(i))
		}
	}
	for len(stack) > 0 {
		k := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		b.callees(k, func(_ int, c int32) {
			if !want[c] {
				want[c] = true
				stack = append(stack, c)
			}
		})
	}
	out := order[:0]
	for _, i := range order {
		if want[i] {
			out = append(out, i)
		}
	}
	return out
}

// condense runs Tarjan's algorithm over the set's call edges among order
// and returns the SCCs in reverse topological order (callees before
// callers), each SCC's members sorted by key. Iteration order over nodes
// and edges is deterministic, so the condensation is too.
func (b *summaryBuilder) condense(order []int32) [][]int32 {
	// Distinct successors per node, flat: succ[adj[i]:adj[i+1]] for the
	// i'th node of order.
	pos := make([]int32, len(b.nodes)) // node -> position in order, +1
	for p, i := range order {
		pos[i] = int32(p) + 1
	}
	adj := make([]int32, len(order)+1)
	var succ []int32
	for p, i := range order {
		lo := len(succ)
		b.callees(i, func(_ int, c int32) {
			if pos[c] == 0 || slices.Contains(succ[lo:], c) {
				return
			}
			succ = append(succ, c)
		})
		adj[p+1] = int32(len(succ))
	}
	const unvisited = -1
	index := make([]int32, len(b.nodes))
	low := make([]int32, len(b.nodes))
	onStack := make([]bool, len(b.nodes))
	for i := range index {
		index[i] = unvisited
	}
	var stack []int32
	var sccs [][]int32
	next := int32(0)
	type frame struct {
		node int32
		ei   int32
	}
	var call []frame
	for _, root := range order {
		if index[root] != unvisited {
			continue
		}
		call = append(call[:0], frame{node: root, ei: adj[pos[root]-1]})
		index[root], low[root] = next, next
		next++
		stack = append(stack, root)
		onStack[root] = true
		for len(call) > 0 {
			f := &call[len(call)-1]
			if f.ei < adj[pos[f.node]] {
				w := succ[f.ei]
				f.ei++
				if index[w] == unvisited {
					index[w], low[w] = next, next
					next++
					stack = append(stack, w)
					onStack[w] = true
					call = append(call, frame{node: w, ei: adj[pos[w]-1]})
				} else if onStack[w] && index[w] < low[f.node] {
					low[f.node] = index[w]
				}
				continue
			}
			// f.node finished: pop, propagate lowlink, emit SCC at root.
			k := f.node
			call = call[:len(call)-1]
			if len(call) > 0 && low[k] < low[call[len(call)-1].node] {
				low[call[len(call)-1].node] = low[k]
			}
			if low[k] == index[k] {
				var scc []int32
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					scc = append(scc, w)
					if w == k {
						break
					}
				}
				slices.Sort(scc) // node numbers ascend with keys
				sccs = append(sccs, scc)
			}
		}
	}
	return sccs
}

// computeSCC summarizes one SCC's methods. A non-recursive singleton needs
// one pass; a recursive component iterates to a fixpoint (facts only grow,
// so comparing summaries detects convergence). Seeded members are not
// recomputed — except inside a partially seeded recursive component,
// where the seeds are dropped and the whole cycle converges fresh (see
// SummaryConfig.Seeds).
func (b *summaryBuilder) computeSCC(scc []int32) error {
	seededHere := 0
	for _, i := range scc {
		if b.seeded[i] {
			seededHere++
		}
	}
	if seededHere == len(scc) {
		return nil
	}
	recursive := len(scc) > 1
	if !recursive {
		b.callees(scc[0], func(_ int, c int32) {
			if c == scc[0] {
				recursive = true
			}
		})
	}
	if recursive && seededHere > 0 {
		for _, i := range scc {
			if b.seeded[i] {
				b.sums[i] = nil
				b.seeded[i] = false
				b.set.stats.Seeded--
			}
		}
	}
	for iter := 0; ; iter++ {
		changed := false
		for _, i := range scc {
			if b.seeded[i] {
				continue
			}
			if b.conf.Cancel != nil {
				if err := b.conf.Cancel(); err != nil {
					return err
				}
			}
			sum := b.computeMethod(i)
			if prev := b.sums[i]; prev == nil || !equalSummary(prev, sum) {
				changed = true
			}
			b.sums[i] = sum
		}
		if !recursive || !changed || iter+1 >= summaryFixpointBound {
			return nil
		}
		b.set.stats.FixpointIterations++
	}
}

// siteSums maps the call sites of one method to the summaries of their
// summarized callees: sites ascend, and sums[lo:hi] of a site's span hold
// its callees in edge order. A callee in the summarized set whose summary
// is not yet computed (same SCC, first iteration) contributes a nil entry:
// callers treat it as an empty summary, which the fixpoint then grows.
type siteSums struct {
	spans []siteSpan
	sums  []*TaintSummary
}

type siteSpan struct{ site, lo, hi int32 }

// at returns the summaries of the callees at site.
func (c siteSums) at(site int) []*TaintSummary {
	lo, hi := 0, len(c.spans)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if int(c.spans[mid].site) < site {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(c.spans) && int(c.spans[lo].site) == site {
		sp := c.spans[lo]
		return c.sums[sp.lo:sp.hi:sp.hi]
	}
	return nil
}

// calleeAt resolves the summarized callees of each call site of node i,
// in deterministic (sorted) edge order.
func (b *summaryBuilder) calleeAt(i int32) siteSums {
	var out siteSums
	b.callees(i, func(site int, c int32) {
		n := int32(len(out.sums))
		if k := len(out.spans) - 1; k >= 0 && int(out.spans[k].site) == site {
			out.spans[k].hi = n + 1
		} else {
			out.spans = append(out.spans, siteSpan{site: int32(site), lo: n, hi: n + 1})
		}
		out.sums = append(out.sums, b.sums[c])
	})
	return out
}

// boundTokens returns the callee tokens of sum that are bound, at the
// invocation inv, to a local satisfying isAlias (token 0 → receiver,
// token 1+j → argument j), in ascending order.
func BoundTokens(inv jimple.InvokeExpr, sum *TaintSummary, isAlias func(string) bool) []int {
	var toks []int
	if sum == nil {
		return nil
	}
	if inv.Base != "" && sum.Inputs > 0 && isAlias(inv.Base) {
		toks = append(toks, 0)
	}
	for j, arg := range inv.Args {
		if 1+j >= sum.Inputs {
			break
		}
		if l, ok := arg.(jimple.Local); ok && isAlias(l.Name) {
			toks = append(toks, 1+j)
		}
	}
	return toks
}

// tokenLocal returns the caller local bound to callee token tok at inv,
// or "" when the token has no local binding (non-local argument).
func tokenLocal(inv jimple.InvokeExpr, tok int) string {
	if tok == 0 {
		return inv.Base
	}
	if tok-1 < len(inv.Args) {
		if l, ok := inv.Args[tok-1].(jimple.Local); ok {
			return l.Name
		}
	}
	return ""
}

// computeMethod builds node i's summary against the callee summaries
// currently in the set.
func (b *summaryBuilder) computeMethod(i int32) *TaintSummary {
	m := b.nodes[i].m
	g := b.conf.cfg(m)
	callees := b.calleeAt(i)
	inputs := 1 + len(m.Sig.Params)
	if inputs > maxSummaryInputs {
		inputs = maxSummaryInputs
	}
	sum := &TaintSummary{
		Inputs:    inputs,
		StateFrom: make([]uint64, inputs),
		CallsOn:   make([][]SummaryCall, inputs),
	}
	in := b.aliasFixpoint(m, g, callees)
	b.collectFacts(m, g, callees, in, sum)
	b.checkFacts(m, g, callees, in, sum)
	for k := range sum.CallsOn {
		sum.CallsOn[k] = dedupeCalls(sum.CallsOn[k])
	}
	sum.CallsOnRet = dedupeCalls(sum.CallsOnRet)
	return sum
}

// aliasFact is one local's input mask: the inputs the local may alias or
// derive from. A mask is never zero.
type aliasFact struct {
	local int32
	mask  uint64
}

// aliasRow is one node's alias state: its facts by ascending local id (a
// local's index in cfg.Graph.Locals). Rows are sparse because most locals
// never carry an input.
type aliasRow []aliasFact

func (r aliasRow) get(local int) uint64 {
	for _, f := range r {
		if int(f.local) >= local {
			if int(f.local) == local {
				return f.mask
			}
			break
		}
	}
	return 0
}

// find returns the position of local in r, or where it would be inserted.
func (r aliasRow) find(local int) (int, bool) {
	for i, f := range r {
		if int(f.local) >= local {
			return i, int(f.local) == local
		}
	}
	return len(r), false
}

// or merges mask (non-zero) into local's fact.
func (r *aliasRow) or(local int, mask uint64) {
	i, ok := r.find(local)
	if ok {
		(*r)[i].mask |= mask
		return
	}
	*r = slices.Insert(*r, i, aliasFact{local: int32(local), mask: mask})
}

// set replaces local's fact with mask (non-zero).
func (r *aliasRow) set(local int, mask uint64) {
	i, ok := r.find(local)
	if ok {
		(*r)[i].mask = mask
		return
	}
	*r = slices.Insert(*r, i, aliasFact{local: int32(local), mask: mask})
}

// del drops local's fact.
func (r *aliasRow) del(local int) {
	if i, ok := r.find(local); ok {
		*r = slices.Delete(*r, i, i+1)
	}
}

// union sets dst to the fact-wise OR of a and b.
func union(dst, a, b aliasRow) aliasRow {
	dst = dst[:0]
	for len(a) > 0 && len(b) > 0 {
		switch {
		case a[0].local < b[0].local:
			dst, a = append(dst, a[0]), a[1:]
		case b[0].local < a[0].local:
			dst, b = append(dst, b[0]), b[1:]
		default:
			dst = append(dst, aliasFact{local: a[0].local, mask: a[0].mask | b[0].mask})
			a, b = a[1:], b[1:]
		}
	}
	dst = append(dst, a...)
	return append(dst, b...)
}

// aliasVals reads and writes a row by local name.
type aliasVals struct {
	names []string
	row   aliasRow
}

func (v *aliasVals) get(name string) uint64 {
	if id := cfg.LocalIn(v.names, name); id >= 0 {
		return v.row.get(id)
	}
	return 0
}

func (v *aliasVals) or(name string, mask uint64) {
	if id := cfg.LocalIn(v.names, name); id >= 0 {
		v.row.or(id, mask)
	}
}

func (v *aliasVals) set(name string, mask uint64) {
	if id := cfg.LocalIn(v.names, name); id >= 0 {
		v.row.set(id, mask)
	}
}

func (v *aliasVals) del(name string) {
	if id := cfg.LocalIn(v.names, name); id >= 0 {
		v.row.del(id)
	}
}

// aliasIn is the converged alias state before every node.
type aliasIn struct {
	names []string
	rows  []aliasRow
}

// at returns the state before node i.
func (a aliasIn) at(i int) aliasVals { return aliasVals{names: a.names, row: a.rows[i]} }

// aliasFixpoint computes, per node, the input mask of each local holding
// immediately before the node executes: which inputs each local may alias
// or derive from. The transfer mirrors ForwardTaint's object-taint rules
// (receiver derivation, field-store insensitivity, strong updates on
// overwrite) lifted to per-input masks, and additionally flows through
// summarized callees (return derivation and state effects).
//
// Rows live in an arena the builder reuses from method to method; a node's
// row is stored again only when it changes.
func (b *summaryBuilder) aliasFixpoint(m *jimple.Method, g *cfg.Graph, callees siteSums) aliasIn {
	names := g.Locals()
	n := g.NumNodes()
	// The rows of the previous method are dead by now: reuse them.
	b.rows = slices.Grow(b.rows[:0], 2*n)[:2*n]
	clear(b.rows)
	in, out := b.rows[:n:n], b.rows[n:]
	b.arena = b.arena[:0]
	store := func(r aliasRow) aliasRow {
		if len(r) == 0 {
			return nil
		}
		lo := len(b.arena)
		b.arena = append(b.arena, r...)
		return b.arena[lo:len(b.arena):len(b.arena)]
	}
	work := b.work[:0]
	inWork := slices.Grow(b.inWork[:0], n)[:n]
	clear(inWork)
	push := func(i int) {
		if !inWork[i] {
			inWork[i] = true
			work = append(work, i)
		}
	}
	for i := 0; i < n; i++ {
		push(i)
	}
	defer func() { b.work, b.inWork = work[:0], inWork }()
	for head := 0; head < len(work); head++ {
		u := work[head]
		inWork[u] = false
		cur := b.cur[:0]
		for _, p := range g.Preds(u) {
			b.tmp = union(b.tmp, cur, out[p])
			cur, b.tmp = b.tmp, cur
		}
		if !slices.Equal(in[u], cur) {
			in[u] = store(cur)
		}
		if u < len(m.Body) {
			v := aliasVals{names: names, row: cur}
			b.aliasTransfer(m.Body[u], u, &v, callees)
			cur = v.row
		}
		if !slices.Equal(out[u], cur) {
			out[u] = store(cur)
			for _, s := range g.Succs(u) {
				push(s)
			}
		}
		b.cur = cur
	}
	return aliasIn{names: names, rows: in}
}

// aliasTransfer applies one statement's transfer to cur. Every write but
// the strong update is guarded by a non-zero mask, which can only derive
// from a fact already present.
func (b *summaryBuilder) aliasTransfer(s jimple.Stmt, at int, cur *aliasVals, callees siteSums) {
	if inv, ok := jimple.InvokeOf(s); ok {
		applyStateEffects(inv, callees.at(at), cur)
	}
	a, ok := s.(*jimple.AssignStmt)
	if !ok {
		return
	}
	if f, isField := a.LHS.(jimple.FieldRef); isField {
		if f.Base != "" {
			// Object-level field insensitivity: storing a derived value
			// into x makes x's object state derive the same inputs.
			if vm := maskOfValue(a.RHS, at, cur, callees); vm != 0 {
				cur.or(f.Base, vm)
			}
		}
		return
	}
	dst := a.LHS.(jimple.Local).Name
	var mask uint64
	switch rhs := a.RHS.(type) {
	case jimple.ThisRef:
		mask = bit(0)
	case jimple.ParamRef:
		mask = bit(1 + rhs.Index)
	default:
		mask = maskOfValue(a.RHS, at, cur, callees)
	}
	if mask != 0 {
		cur.set(dst, mask)
	} else {
		cur.del(dst) // strong update: overwritten with a fresh value
	}
}

// applyStateEffects propagates callee StateFrom relations to the caller's
// bound locals: if the callee stores input t_in into input t_out's state,
// the caller local bound to t_out now derives everything the local bound
// to t_in derives.
func applyStateEffects(inv jimple.InvokeExpr, sums []*TaintSummary, cur *aliasVals) {
	for _, sum := range sums {
		if sum == nil {
			continue
		}
		for tOut := 0; tOut < sum.Inputs; tOut++ {
			effects := sum.StateFrom[tOut]
			if effects == 0 {
				continue
			}
			outLocal := tokenLocal(inv, tOut)
			if outLocal == "" {
				continue
			}
			var inMask uint64
			for tIn := 0; tIn < sum.Inputs; tIn++ {
				if effects&bit(tIn) != 0 {
					if l := tokenLocal(inv, tIn); l != "" {
						inMask |= cur.get(l)
					}
				}
			}
			if inMask != 0 {
				cur.or(outLocal, inMask)
			}
		}
	}
}

func maskOfValue(v jimple.Value, at int, cur *aliasVals, callees siteSums) uint64 {
	switch v := v.(type) {
	case jimple.Local:
		return cur.get(v.Name)
	case jimple.CastExpr:
		return maskOfValue(v.V, at, cur, callees)
	case jimple.FieldRef:
		// A load from a derived object yields a derived value (field
		// insensitivity); static loads are fresh.
		if v.Base != "" {
			return cur.get(v.Base)
		}
		return 0
	case jimple.InvokeExpr:
		if sums := callees.at(at); len(sums) > 0 {
			// Summarized callees: the result derives exactly what the
			// callee's RetFrom maps the bindings to.
			var mask uint64
			for _, sum := range sums {
				if sum == nil {
					continue
				}
				for t := 0; t < sum.Inputs; t++ {
					if sum.RetFrom&bit(t) != 0 {
						if l := tokenLocal(v, t); l != "" {
							mask |= cur.get(l)
						}
					}
				}
			}
			return mask
		}
		// Unsummarized (framework) callee: receiver derivation, matching
		// DefaultTaintOptions.TaintThroughReceiver.
		if v.Base != "" {
			return cur.get(v.Base)
		}
		return 0
	default:
		return 0
	}
}

// collectFacts walks the body once with the converged in-states and
// records the summary's may-facts: calls on inputs, uses, escapes, state
// transfer, return derivation, and the factory CallsOnRet list.
func (b *summaryBuilder) collectFacts(m *jimple.Method, g *cfg.Graph, callees siteSums, in aliasIn, sum *TaintSummary) {
	var rd *ReachDefs
	var cp *ConstProp
	lazyCP := func() *ConstProp {
		if cp == nil {
			rd = b.conf.reachDefs(m, g)
			cp = b.conf.constProp(m, rd)
		}
		return cp
	}
	addCallsOn := func(mask uint64, sc SummaryCall) {
		for k := 0; k < sum.Inputs; k++ {
			if mask&bit(k) != 0 {
				sum.CallsOn[k] = append(sum.CallsOn[k], sc)
			}
		}
	}
	var freshReturns []int
	for i, s := range m.Body {
		cur := in.at(i)
		if a, isAsg := s.(*jimple.AssignStmt); isAsg {
			if f, isField := a.LHS.(jimple.FieldRef); isField {
				vm := maskOfValue(a.RHS, i, &cur, callees)
				if vm != 0 {
					if base := cur.get(f.Base); f.Base == "" || base == 0 {
						sum.Escapes |= vm
					} else {
						for k := 0; k < sum.Inputs; k++ {
							if base&bit(k) != 0 {
								sum.StateFrom[k] |= vm
							}
						}
					}
				}
			}
			if io, isIO := a.RHS.(jimple.InstanceOfExpr); isIO {
				if l, isLocal := io.V.(jimple.Local); isLocal {
					sum.Uses |= cur.get(l.Name)
				}
			}
		}
		if r, isRet := s.(*jimple.ReturnStmt); isRet && r.V != nil {
			vm := maskOfValue(r.V, i, &cur, callees)
			sum.RetFrom |= vm
			if vm == 0 {
				if _, isLocal := r.V.(jimple.Local); isLocal {
					freshReturns = append(freshReturns, i)
				}
			}
		}
		inv, isInv := jimple.InvokeOf(s)
		if !isInv {
			continue
		}
		sums := callees.at(i)
		if base := cur.get(inv.Base); inv.Base != "" && base != 0 {
			// A call on an alias of an input: record it (with constant
			// arguments folded here, where they are evaluable) and mark
			// the inputs used.
			sum.Uses |= base
			addCallsOn(base, SummaryCall{Callee: inv.Callee, Args: evalArgs(lazyCP(), i, inv)})
		}
		if len(sums) == 0 {
			// Passing an input into unsummarized code counts as a use
			// (unknown code may consult it).
			for _, arg := range inv.Args {
				if l, ok := arg.(jimple.Local); ok {
					sum.Uses |= cur.get(l.Name)
				}
			}
			continue
		}
		// Map the summarized callees' facts through the binding.
		for _, cs := range sums {
			if cs == nil {
				continue
			}
			for t := 0; t < cs.Inputs; t++ {
				l := tokenLocal(inv, t)
				if l == "" {
					continue
				}
				mask := cur.get(l)
				if mask == 0 {
					continue
				}
				if cs.UsesToken(t) {
					sum.Uses |= mask
				}
				if cs.Escapes&bit(t) != 0 {
					sum.Escapes |= mask
				}
				for _, sc := range cs.CallsOn[t] {
					addCallsOn(mask, sc)
				}
				// Transitive state transfer: callee stores t into t_out.
				for tOut := 0; tOut < cs.Inputs; tOut++ {
					if cs.StateFrom[tOut]&bit(t) == 0 {
						continue
					}
					if lOut := tokenLocal(inv, tOut); lOut != "" {
						out := cur.get(lOut)
						for k := 0; k < sum.Inputs; k++ {
							if out&bit(k) != 0 {
								sum.StateFrom[k] |= mask
							}
						}
					}
				}
			}
		}
	}
	// Factory pattern: calls on objects the method allocates and returns.
	for _, ret := range freshReturns {
		l := m.Body[ret].(*jimple.ReturnStmt).V.(jimple.Local)
		lazyCP()
		for _, oc := range CallsOnObject(g, rd, ret, l.Name) {
			sum.CallsOnRet = append(sum.CallsOnRet, SummaryCall{Callee: oc.Callee, Args: evalArgs(cp, oc.Stmt, mustInvoke(m, oc.Stmt))})
		}
		// Chained factories: the returned object may itself come from a
		// summarized factory (its CallsOnRet) or be a callee's
		// passed-through input (its CallsOn via RetFrom).
		for _, alloc := range AllocSitesOf(rd, ret, l.Name) {
			for _, cs := range callees.at(alloc) {
				if cs == nil {
					continue
				}
				sum.CallsOnRet = append(sum.CallsOnRet, cs.CallsOnRet...)
				if inv, ok := jimple.InvokeOf(m.Body[alloc]); ok {
					for t := 0; t < cs.Inputs; t++ {
						if cs.RetFrom&bit(t) != 0 && tokenLocal(inv, t) != "" {
							sum.CallsOnRet = append(sum.CallsOnRet, cs.CallsOn[t]...)
						}
					}
				}
			}
		}
	}
}

func mustInvoke(m *jimple.Method, stmt int) jimple.InvokeExpr {
	inv, _ := jimple.InvokeOf(m.Body[stmt])
	return inv
}

// checkFacts computes the must-check facts per input: ValidatedAllPaths
// (every entry→exit path validates the input) and UncheckedUse (some path
// reads the payload before any validation) — the summary form of checker
// 4's response-validity analysis.
func (b *summaryBuilder) checkFacts(m *jimple.Method, g *cfg.Graph, callees siteSums, in aliasIn, sum *TaintSummary) {
	var present uint64
	for _, r := range in.rows {
		for _, f := range r {
			present |= f.mask
		}
	}
	for k := 0; k < sum.Inputs; k++ {
		if present&bit(k) == 0 {
			continue
		}
		isAlias := func(stmt int, name string) bool {
			if stmt >= len(in.rows) {
				return false
			}
			v := in.at(stmt)
			return v.get(name)&bit(k) != 0
		}
		checked := mustCheckedIn(g, m, isAlias, callees, b.conf.IsValidityCheck)
		if checked[g.Exit()] {
			sum.ValidatedAllPaths |= bit(k)
		}
		for i := range m.Body {
			if payloadReadAt(m, i, isAlias, callees, b.conf.IsValidityCheck) && !checked[i] {
				sum.UncheckedUse |= bit(k)
				break
			}
		}
	}
}

// mustCheckedIn is a forward must-analysis: fact[i] is true when every
// path reaching node i has validated the tracked alias — via a validity
// check call, a null test, or a summarized callee that validates the
// bound token on all its paths. Optimistic initialization (start at TOP),
// entry starts unchecked.
func mustCheckedIn(g *cfg.Graph, m *jimple.Method, isAlias func(int, string) bool, callees siteSums, isCheck func(jimple.Sig) bool) []bool {
	n := g.NumNodes()
	in := make([]bool, n)
	out := make([]bool, n)
	for i := range in {
		in[i] = true
		out[i] = true
	}
	gen := func(i int) bool {
		if i >= len(m.Body) {
			return false
		}
		s := m.Body[i]
		if iff, ok := s.(*jimple.IfStmt); ok {
			return isNullTestOnValue(iff.Cond, i, isAlias)
		}
		inv, ok := jimple.InvokeOf(s)
		if !ok {
			return false
		}
		if isCheck != nil && inv.Base != "" && isAlias(i, inv.Base) && isCheck(inv.Callee) {
			return true
		}
		// A call whose every summarized callee validates a bound alias
		// token on all its paths establishes the check here too.
		sums := callees.at(i)
		if len(sums) == 0 {
			return false
		}
		for _, cs := range sums {
			validated := false
			for _, t := range BoundTokens(inv, cs, func(name string) bool { return isAlias(i, name) }) {
				if cs.ValidatedAllPaths&bit(t) != 0 {
					validated = true
					break
				}
			}
			if !validated {
				return false
			}
		}
		return true
	}
	for changed := true; changed; {
		changed = false
		for u := 0; u < n; u++ {
			newIn := u != 0
			for _, p := range g.Preds(u) {
				newIn = newIn && out[p]
			}
			if u == 0 {
				newIn = false
			}
			newOut := newIn || gen(u)
			if newIn != in[u] || newOut != out[u] {
				in[u], out[u] = newIn, newOut
				changed = true
			}
		}
	}
	return in
}

// payloadReadAt reports whether statement i reads the tracked alias's
// payload: a non-check call on it, or passing it to a summarized callee
// that itself has an unchecked use of the bound token.
func payloadReadAt(m *jimple.Method, i int, isAlias func(int, string) bool, callees siteSums, isCheck func(jimple.Sig) bool) bool {
	inv, ok := jimple.InvokeOf(m.Body[i])
	if !ok {
		return false
	}
	sums := callees.at(i)
	if inv.Base != "" && isAlias(i, inv.Base) {
		if isCheck != nil && isCheck(inv.Callee) {
			return false
		}
		if len(sums) == 0 {
			return true // framework call on the alias reads the payload
		}
	}
	for _, cs := range sums {
		if cs == nil {
			continue
		}
		for _, t := range BoundTokens(inv, cs, func(name string) bool { return isAlias(i, name) }) {
			if cs.UncheckedUse&bit(t) != 0 {
				return true
			}
		}
	}
	return false
}

// isNullTestOnValue matches `x == null` / `x != null` conditions on an
// alias (shared shape with checker 4's null-test detection).
func isNullTestOnValue(cond jimple.Value, stmt int, isAlias func(int, string) bool) bool {
	be, ok := cond.(jimple.BinExpr)
	if !ok || (be.Op != jimple.OpEQ && be.Op != jimple.OpNE) {
		return false
	}
	lLocal, lIsLocal := be.L.(jimple.Local)
	rLocal, rIsLocal := be.R.(jimple.Local)
	_, lIsNull := be.L.(jimple.NullConst)
	_, rIsNull := be.R.(jimple.NullConst)
	if lIsLocal && rIsNull {
		return isAlias(stmt, lLocal.Name)
	}
	if rIsLocal && lIsNull {
		return isAlias(stmt, rLocal.Name)
	}
	return false
}

// evalArgs folds the invocation's arguments to constants in the defining
// method's context.
func evalArgs(cp *ConstProp, stmt int, inv jimple.InvokeExpr) []SummaryArg {
	if len(inv.Args) == 0 {
		return nil
	}
	out := make([]SummaryArg, len(inv.Args))
	for j := range inv.Args {
		v, ok := cp.ArgInt(stmt, inv, j)
		out[j] = SummaryArg{Known: ok, V: v}
	}
	return out
}

// dedupeCalls sorts and deduplicates a summary call list (callee key,
// then argument values) for deterministic summaries. Callee keys are
// rendered once up front, not once per comparison.
func dedupeCalls(calls []SummaryCall) []SummaryCall {
	if len(calls) == 0 {
		return nil
	}
	keys := calleeKeys(len(calls), func(i int) jimple.Sig { return calls[i].Callee })
	sort.Stable(&callSorter{calls: calls, keys: keys})
	out := calls[:1]
	last := 0
	for i := 1; i < len(calls); i++ {
		if keys[last] != keys[i] || !sameArgs(out[len(out)-1].Args, calls[i].Args) {
			out = append(out, calls[i])
			last = i
		}
	}
	return out
}

// callSorter orders SummaryCalls by pre-rendered callee key, then
// argument vector, swapping the key slice in lockstep.
type callSorter struct {
	calls []SummaryCall
	keys  []string
}

func (s *callSorter) Len() int { return len(s.calls) }

func (s *callSorter) Swap(i, j int) {
	s.calls[i], s.calls[j] = s.calls[j], s.calls[i]
	s.keys[i], s.keys[j] = s.keys[j], s.keys[i]
}

func (s *callSorter) Less(i, j int) bool {
	if s.keys[i] != s.keys[j] {
		return s.keys[i] < s.keys[j]
	}
	a, b := &s.calls[i], &s.calls[j]
	if len(a.Args) != len(b.Args) {
		return len(a.Args) < len(b.Args)
	}
	for k := range a.Args {
		if a.Args[k] != b.Args[k] {
			if a.Args[k].Known != b.Args[k].Known {
				return !a.Args[k].Known
			}
			return a.Args[k].V < b.Args[k].V
		}
	}
	return false
}

func sameArgs(a, b []SummaryArg) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func equalCall(a, b *SummaryCall) bool {
	if a.Callee.Key() != b.Callee.Key() || len(a.Args) != len(b.Args) {
		return false
	}
	for i := range a.Args {
		if a.Args[i] != b.Args[i] {
			return false
		}
	}
	return true
}

func equalSummary(a, b *TaintSummary) bool {
	if a.Inputs != b.Inputs || a.RetFrom != b.RetFrom || a.Escapes != b.Escapes ||
		a.Uses != b.Uses || a.ValidatedAllPaths != b.ValidatedAllPaths ||
		a.UncheckedUse != b.UncheckedUse {
		return false
	}
	for k := range a.StateFrom {
		if a.StateFrom[k] != b.StateFrom[k] {
			return false
		}
	}
	if len(a.CallsOnRet) != len(b.CallsOnRet) {
		return false
	}
	for i := range a.CallsOnRet {
		if !equalCall(&a.CallsOnRet[i], &b.CallsOnRet[i]) {
			return false
		}
	}
	for k := range a.CallsOn {
		if len(a.CallsOn[k]) != len(b.CallsOn[k]) {
			return false
		}
		for i := range a.CallsOn[k] {
			if !equalCall(&a.CallsOn[k][i], &b.CallsOn[k][i]) {
				return false
			}
		}
	}
	return true
}

// Package cfg builds per-method control-flow graphs over the jimple IR and
// provides the classic graph analyses the checkers need: dominators,
// post-dominators, and natural-loop detection. Nodes are statement indexes
// into the method body, so CFG results compose directly with the dataflow
// engines in internal/dataflow.
//
// Corpus methods are small (a handful of statements each) and a scan
// builds a graph per analyzed method, so the representation is flat: a
// graph is two slabs (CSR offsets and node ids), and the analyses run
// over pooled scratch and return slices carved from one allocation.
package cfg

import (
	"math/bits"
	"slices"
	"sync"

	"repro/internal/jimple"
)

// Graph is the control-flow graph of one method body. Node i corresponds
// to m.Body[i]. Entry is always node 0. Exit is a synthetic node with
// index len(Body), the target of every return/throw-without-handler.
type Graph struct {
	Method *jimple.Method
	n      int // nodes, the exit included
	// off[i]:off[i+1] delimits node i's successors in adj and
	// off[n+i]:off[n+i+1] its predecessors; both are in insertion order.
	off []int
	adj []int
	// exc[k] reports whether successor slot k (an index into adj below
	// off[n]) is an exceptional (trap) edge; nil when no edge is.
	exc []bool
	// locals is the method's local index, built on first use and shared
	// with the graphs WithoutEdges derives.
	locals *localIndex
}

// localIndex numbers the locals of one method body.
type localIndex struct {
	once  sync.Once
	names []string // sorted, distinct
}

// Locals returns the sorted, distinct names of every local m declares or
// its body names (defines, reads, invokes on or stores into). A local's
// position in the list is its local id, the index the dataflow engines
// key their per-local rows by. The list is built once per method and
// shared by every graph derived from g; callers must not modify it.
func (g *Graph) Locals() []string {
	x := g.locals
	x.once.Do(func() {
		m := g.Method
		names := make([]string, 0, len(m.Locals)+4)
		for _, l := range m.Locals {
			names = append(names, l.Name)
		}
		slices.Sort(names)
		names = slices.Compact(names)
		// Bodies mostly name declared locals: a binary search finds them,
		// and the rare undeclared name is inserted in place.
		add := func(name string) {
			if i, ok := slices.BinarySearch(names, name); !ok {
				names = slices.Insert(names, i, name)
			}
		}
		var buf [16]string
		for _, s := range m.Body {
			if d := jimple.DefOf(s); d != "" {
				add(d)
			}
			for _, u := range jimple.UsesOf(buf[:0], s) {
				add(u)
			}
		}
		x.names = slices.Clip(names)
	})
	return x.names
}

// LocalIn returns the index of name in the sorted list names, or -1: the
// local id of name when names is a Locals list.
func LocalIn(names []string, name string) int {
	lo, hi := 0, len(names)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if names[mid] < name {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(names) && names[lo] == name {
		return lo
	}
	return -1
}

// scratch is the transient state of graph building and of the graph
// analyses, reused through scratches so a build or an analysis allocates
// only its result. A build collects the graph's edges in insertion order,
// dropping repeats, and lays them out as CSR.
type scratch struct {
	edges []edge
	// last[u] is 1 + the index in edges of u's latest successor edge
	// (0 for none); edge.prev chains the earlier ones, so a repeat check
	// walks only u's own successors.
	last []int32
	cnt  []int
	drop [][2]int
	ints []int
}

type edge struct {
	from, to int32
	prev     int32
	exc      bool
}

var scratches = sync.Pool{New: func() any { return new(scratch) }}

// intsOf returns s's int scratch resized to n, contents undefined.
func (s *scratch) intsOf(n int) []int {
	s.ints = slices.Grow(s.ints[:0], n)[:n]
	return s.ints
}

func (s *scratch) reset(n int) {
	s.edges = s.edges[:0]
	s.last = slices.Grow(s.last[:0], n)[:n]
	clear(s.last)
}

// add records the edge from→to unless it is already present; a repeat
// keeps the first insertion's exceptional flag.
func (s *scratch) add(from, to int, exc bool) {
	for k := s.last[from]; k != 0; k = s.edges[k-1].prev {
		if int(s.edges[k-1].to) == to {
			return
		}
	}
	s.edges = append(s.edges, edge{from: int32(from), to: int32(to), prev: s.last[from], exc: exc})
	s.last[from] = int32(len(s.edges))
}

// graph lays the collected edges out as a graph of n nodes over m, its
// local index shared with locals when that is non-nil.
func (s *scratch) graph(m *jimple.Method, n int, locals *localIndex) *Graph {
	e := len(s.edges)
	var g *Graph
	if locals == nil {
		// The graph and its local index share one allocation.
		pair := new(struct {
			g Graph
			l localIndex
		})
		g, locals = &pair.g, &pair.l
	} else {
		g = new(Graph)
	}
	slab := make([]int, 2*n+1+2*e)
	*g = Graph{Method: m, n: n, off: slab[:2*n+1], adj: slab[2*n+1:], locals: locals}
	// Counting sorts by source and by target; both keep insertion order.
	cnt := slices.Grow(s.cnt[:0], 2*n)[:2*n]
	clear(cnt)
	anyExc := false
	for _, x := range s.edges {
		cnt[x.from]++
		cnt[n+int(x.to)]++
		anyExc = anyExc || x.exc
	}
	sum := 0
	for i, c := range cnt {
		g.off[i] = sum
		cnt[i] = sum
		sum += c
	}
	g.off[2*n] = sum
	if anyExc {
		g.exc = make([]bool, e)
	}
	for _, x := range s.edges {
		k := cnt[x.from]
		cnt[x.from]++
		g.adj[k] = int(x.to)
		if x.exc {
			g.exc[k] = true
		}
		p := cnt[n+int(x.to)]
		cnt[n+int(x.to)]++
		g.adj[p] = int(x.from)
	}
	s.cnt = cnt
	return g
}

// New builds the CFG of m, which must have a body. Exceptional edges are
// added from every statement inside a trap range to the trap handler
// (conservatively: any statement in range may throw).
func New(m *jimple.Method) *Graph {
	n := len(m.Body)
	b := scratches.Get().(*scratch)
	defer scratches.Put(b)
	b.reset(n + 1)
	var scratch [2]int
	for i, s := range m.Body {
		for _, t := range jimple.BranchTargets(scratch[:0], s) {
			b.add(i, t, false)
		}
		if jimple.FallsThrough(s) {
			b.add(i, i+1, false)
		}
		switch s.(type) {
		case *jimple.ReturnStmt:
			b.add(i, n, false)
		case *jimple.ThrowStmt:
			// A throw reaches its enclosing handlers if any, else exit.
			covered := false
			for _, t := range m.Traps {
				if i >= t.Begin && i < t.End {
					b.add(i, t.Handler, true)
					covered = true
				}
			}
			if !covered {
				b.add(i, n, false)
			}
		}
	}
	// Exceptional edges: every statement in a trap range can transfer to
	// the handler (calls and dereferences may throw).
	for _, t := range m.Traps {
		for i := t.Begin; i < t.End && i < n; i++ {
			b.add(i, t.Handler, true)
		}
	}
	return b.graph(m, n+1, nil)
}

// WithoutEdges returns a copy of g lacking the given (from, to) edges.
// Node indexing is unchanged, so statement-indexed dataflow results over
// the pruned graph compose with the original body; nodes left without
// incoming edges simply become unreachable from the entry. Edges not
// present in g are ignored.
func (g *Graph) WithoutEdges(drop [][2]int) *Graph {
	if len(drop) == 0 {
		return g
	}
	b := scratches.Get().(*scratch)
	defer scratches.Put(b)
	b.drop = append(b.drop[:0], drop...)
	slices.SortFunc(b.drop, cmpEdge)
	b.reset(g.n)
	for from := 0; from < g.n; from++ {
		for k := g.off[from]; k < g.off[from+1]; k++ {
			to := g.adj[k]
			if _, dropped := slices.BinarySearchFunc(b.drop, [2]int{from, to}, cmpEdge); dropped {
				continue
			}
			b.add(from, to, g.exc != nil && g.exc[k])
		}
	}
	return b.graph(g.Method, g.n, g.locals)
}

func cmpEdge(x, y [2]int) int {
	if x[0] != y[0] {
		return x[0] - y[0]
	}
	return x[1] - y[1]
}

// NumNodes returns the node count including the synthetic exit node.
func (g *Graph) NumNodes() int { return g.n }

// Exit returns the synthetic exit node's index.
func (g *Graph) Exit() int { return g.n - 1 }

// Succs returns the successors of node i. The returned slice is shared;
// callers must not modify it.
func (g *Graph) Succs(i int) []int { return g.adj[g.off[i]:g.off[i+1]:g.off[i+1]] }

// Preds returns the predecessors of node i. The returned slice is shared.
func (g *Graph) Preds(i int) []int {
	return g.adj[g.off[g.n+i]:g.off[g.n+i+1]:g.off[g.n+i+1]]
}

// IsExceptionalEdge reports whether from→to is a trap (exception) edge.
func (g *Graph) IsExceptionalEdge(from, to int) bool {
	if g.exc == nil || from < 0 || from >= g.n {
		return false
	}
	for k := g.off[from]; k < g.off[from+1]; k++ {
		if g.adj[k] == to {
			return g.exc[k]
		}
	}
	return false
}

// Reachable returns the set of nodes reachable from the entry node.
func (g *Graph) Reachable() []bool {
	seen := make([]bool, g.NumNodes())
	stack := []int{0}
	seen[0] = true
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, s := range g.Succs(n) {
			if !seen[s] {
				seen[s] = true
				stack = append(stack, s)
			}
		}
	}
	return seen
}

// Dominators returns idom, where idom[i] is the immediate dominator of
// node i (idom[0] == 0 for the entry; unreachable nodes get -1). Uses the
// Cooper–Harvey–Kennedy iterative algorithm over a reverse postorder.
func (g *Graph) Dominators() []int {
	return g.dominators(0, false)
}

// PostDominators returns ipdom over the reversed graph rooted at the
// synthetic exit node. Nodes that cannot reach the exit get -1.
func (g *Graph) PostDominators() []int {
	return g.dominators(g.Exit(), true)
}

// dominators runs the dominator analysis from root over the successor
// edges, or over the predecessor edges when reverse is set.
func (g *Graph) dominators(root int, reverse bool) []int {
	n := g.n
	next, prev := g.Succs, g.Preds
	if reverse {
		next, prev = g.Preds, g.Succs
	}
	s := scratches.Get().(*scratch)
	defer scratches.Put(s)
	// rpoNum[u] is u's reverse-postorder number (-1 when unvisited),
	// order the nodes in reverse postorder, and stack the depth-first
	// search's (node, next successor) pairs.
	buf := s.intsOf(4 * n)
	rpoNum, order, stack := buf[:n], buf[n:n], buf[2*n:2*n]
	for i := range rpoNum {
		rpoNum[i] = -1
	}
	// An explicit-stack depth-first search, visiting successors in order
	// and emitting each node after its last successor, as the recursive
	// formulation does. rpoNum marks visited nodes (-2) until numbered.
	rpoNum[root] = -2
	stack = append(stack, root, 0)
	for len(stack) > 0 {
		top := len(stack) - 2
		u, k := stack[top], stack[top+1]
		if ss := next(u); k < len(ss) {
			stack[top+1]++
			if v := ss[k]; rpoNum[v] == -1 {
				rpoNum[v] = -2
				stack = append(stack, v, 0)
			}
			continue
		}
		order = append(order, u)
		stack = stack[:top]
	}
	slices.Reverse(order)
	for i, u := range order {
		rpoNum[u] = i
	}
	idom := make([]int, n)
	for i := range idom {
		idom[i] = -1
	}
	idom[root] = root
	intersect := func(a, b int) int {
		for a != b {
			for rpoNum[a] > rpoNum[b] {
				a = idom[a]
			}
			for rpoNum[b] > rpoNum[a] {
				b = idom[b]
			}
		}
		return a
	}
	changed := true
	for changed {
		changed = false
		for _, u := range order {
			if u == root {
				continue
			}
			newIdom := -1
			for _, p := range prev(u) {
				if rpoNum[p] < 0 || idom[p] < 0 {
					continue
				}
				if newIdom < 0 {
					newIdom = p
				} else {
					newIdom = intersect(p, newIdom)
				}
			}
			if newIdom >= 0 && idom[u] != newIdom {
				idom[u] = newIdom
				changed = true
			}
		}
	}
	return idom
}

// Dominates reports whether a dominates b given an idom array.
func Dominates(idom []int, a, b int) bool {
	if a == b {
		return true
	}
	for b != idom[b] {
		if idom[b] < 0 {
			return false
		}
		b = idom[b]
		if b == a {
			return true
		}
	}
	return a == b
}

// Loop is a natural loop: Head is the loop header, Body the nodes in the
// loop (Head included) in ascending order, and BackEdges the tail nodes
// of the back edges into Head. Body and BackEdges are shared; callers
// must not modify them.
type Loop struct {
	Head      int
	Body      []int
	BackEdges []int
	in        []uint64 // Body as a bitset over nodes
}

// Contains reports whether node i belongs to the loop.
func (l *Loop) Contains(i int) bool {
	return i >= 0 && i>>6 < len(l.in) && l.in[i>>6]&(1<<(i&63)) != 0
}

// ExitEdges returns the (from, to) pairs leaving the loop.
func (l *Loop) ExitEdges(g *Graph) [][2]int {
	var out [][2]int
	for _, from := range l.Body {
		for _, to := range g.Succs(from) {
			if !l.Contains(to) {
				out = append(out, [2]int{from, to})
			}
		}
	}
	return out
}

// NaturalLoops finds all natural loops via back edges (t→h where h
// dominates t). Loops sharing a header are merged, matching the classical
// definition.
func (g *Graph) NaturalLoops() []*Loop {
	return g.NaturalLoopsWith(g.Dominators())
}

// NaturalLoopsWith is NaturalLoops reusing a precomputed Dominators
// result, so callers that cache idom (e.g. a per-scan analysis context)
// do not recompute the dominator tree per query. The loops are ordered by
// header; a method without one gets nil.
func (g *Graph) NaturalLoopsWith(idom []int) []*Loop {
	n := g.n
	// The back edges, as (head, tail) pairs in discovery order.
	var back [][2]int
	for t := 0; t < n; t++ {
		for _, h := range g.Succs(t) {
			if Dominates(idom, h, t) {
				back = append(back, [2]int{h, t})
			}
		}
	}
	if len(back) == 0 {
		return nil
	}
	// Group the back edges by header, ascending, keeping discovery order
	// within a header.
	slices.SortStableFunc(back, func(x, y [2]int) int { return x[0] - y[0] })
	nloops := 0
	for i := range back {
		if i == 0 || back[i][0] != back[i-1][0] {
			nloops++
		}
	}
	words := (n + 63) / 64
	loops := make([]Loop, nloops)
	out := make([]*Loop, nloops)
	in := make([]uint64, nloops*words)
	tails := make([]int, len(back))
	s := scratches.Get().(*scratch)
	defer scratches.Put(s)
	li := -1
	for i, e := range back {
		h, t := e[0], e[1]
		if i == 0 || h != back[i-1][0] {
			li++
			l := &loops[li]
			l.Head, l.in = h, in[li*words:(li+1)*words:(li+1)*words]
			l.BackEdges = tails[i:i:len(back)]
			l.in[h>>6] |= 1 << (h & 63)
			out[li] = l
		}
		l := &loops[li]
		l.BackEdges = append(l.BackEdges, t)
		// Collect the loop body: nodes that can reach t without passing
		// through h.
		stack := append(s.intsOf(0), t)
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if l.Contains(u) {
				continue
			}
			l.in[u>>6] |= 1 << (u & 63)
			for _, p := range g.Preds(u) {
				if !l.Contains(p) {
					stack = append(stack, p)
				}
			}
		}
		s.ints = stack
	}
	total := 0
	for _, w := range in {
		total += bits.OnesCount64(w)
	}
	body := make([]int, 0, total)
	for i := range loops {
		l := &loops[i]
		lo := len(body)
		for u := 0; u < n; u++ {
			if l.Contains(u) {
				body = append(body, u)
			}
		}
		l.Body = body[lo:len(body):len(body)]
		l.BackEdges = slices.Clip(l.BackEdges)
	}
	return out
}

// ControlDeps computes control dependence using post-dominators: node u is
// control dependent on branch node b if b has a successor s such that u
// post-dominates s but u does not post-dominate b. deps[u] lists those b,
// ascending; the lists share one backing array.
func (g *Graph) ControlDeps() [][]int {
	ipdom := g.PostDominators()
	n := g.n
	s := scratches.Get().(*scratch)
	defer scratches.Put(s)
	// A first walk counts each node's branches and a second files them.
	// Branches are walked in ascending order, so a repeat of (u, b) —
	// b reaching u through two successors — is always u's latest entry.
	buf := s.intsOf(2 * n)
	cnt, last := buf[:n], buf[n:]
	clear(cnt)
	deps := make([][]int, n)
	walk := func(file func(u, b int)) {
		for i := range last {
			last[i] = -1
		}
		for b := 0; b < n; b++ {
			if g.off[b+1]-g.off[b] < 2 {
				continue
			}
			for _, s := range g.Succs(b) {
				// Walk the post-dominator tree from s up to (excluding)
				// ipdom[b]; every node on the walk is control dependent
				// on b.
				stop := ipdom[b]
				u := s
				for u >= 0 && u != stop {
					if u != b && last[u] != b {
						last[u] = b
						file(u, b)
					}
					if u == ipdom[u] {
						break
					}
					u = ipdom[u]
				}
			}
		}
	}
	total := 0
	walk(func(u, _ int) { cnt[u]++; total++ })
	if total == 0 {
		return deps
	}
	ids := make([]int, total)
	at := 0
	for u, c := range cnt {
		if c > 0 {
			deps[u] = ids[at : at : at+c]
			at += c
		}
	}
	walk(func(u, b int) { deps[u] = append(deps[u], b) })
	return deps
}

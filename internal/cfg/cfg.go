// Package cfg builds per-method control-flow graphs over the jimple IR and
// provides the classic graph analyses the checkers need: dominators,
// post-dominators, and natural-loop detection. Nodes are statement indexes
// into the method body, so CFG results compose directly with the dataflow
// engines in internal/dataflow.
package cfg

import (
	"slices"
	"sort"
	"sync"

	"repro/internal/jimple"
)

// Graph is the control-flow graph of one method body. Node i corresponds
// to m.Body[i]. Entry is always node 0. Exit is a synthetic node with
// index len(Body), the target of every return/throw-without-handler.
type Graph struct {
	Method *jimple.Method
	succs  [][]int
	preds  [][]int
	// ExceptionalInto[i] is true when the only way to reach node i is via
	// an exceptional (trap) edge; handler heads typically qualify.
	exceptionalEdge map[[2]int]bool
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

// New builds the CFG of m, which must have a body. Exceptional edges are
// added from every statement inside a trap range to the trap handler
// (conservatively: any statement in range may throw).
func New(m *jimple.Method) *Graph {
	n := len(m.Body)
	g := &Graph{
		Method:          m,
		succs:           make([][]int, n+1),
		preds:           make([][]int, n+1),
		exceptionalEdge: make(map[[2]int]bool),
		locals:          new(localIndex),
	}
	addEdge := func(from, to int, exceptional bool) {
		for _, s := range g.succs[from] {
			if s == to {
				return
			}
		}
		g.succs[from] = append(g.succs[from], to)
		g.preds[to] = append(g.preds[to], from)
		if exceptional {
			g.exceptionalEdge[[2]int{from, to}] = true
		}
	}
	var scratch []int
	for i, s := range m.Body {
		for _, t := range jimple.BranchTargets(scratch[:0], s) {
			addEdge(i, t, false)
		}
		if jimple.FallsThrough(s) {
			addEdge(i, i+1, false)
		}
		switch s.(type) {
		case *jimple.ReturnStmt:
			addEdge(i, n, false)
		case *jimple.ThrowStmt:
			// A throw reaches its enclosing handler if any, else exit.
			if !inAnyTrap(m, i, addEdge) {
				addEdge(i, n, false)
			}
		}
	}
	// Exceptional edges: every statement in a trap range can transfer to
	// the handler (calls and dereferences may throw).
	for _, t := range m.Traps {
		for i := t.Begin; i < t.End && i < n; i++ {
			addEdge(i, t.Handler, true)
		}
	}
	return g
}

func inAnyTrap(m *jimple.Method, i int, addEdge func(int, int, bool)) bool {
	covered := false
	for _, t := range m.Traps {
		if i >= t.Begin && i < t.End {
			addEdge(i, t.Handler, true)
			covered = true
		}
	}
	return covered
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
	dropSet := make(map[[2]int]bool, len(drop))
	for _, e := range drop {
		dropSet[e] = true
	}
	ng := &Graph{
		Method:          g.Method,
		succs:           make([][]int, len(g.succs)),
		preds:           make([][]int, len(g.preds)),
		exceptionalEdge: make(map[[2]int]bool),
		locals:          g.locals,
	}
	for from, ss := range g.succs {
		for _, to := range ss {
			if dropSet[[2]int{from, to}] {
				continue
			}
			ng.succs[from] = append(ng.succs[from], to)
			ng.preds[to] = append(ng.preds[to], from)
			if g.exceptionalEdge[[2]int{from, to}] {
				ng.exceptionalEdge[[2]int{from, to}] = true
			}
		}
	}
	return ng
}

// NumNodes returns the node count including the synthetic exit node.
func (g *Graph) NumNodes() int { return len(g.succs) }

// Exit returns the synthetic exit node's index.
func (g *Graph) Exit() int { return len(g.succs) - 1 }

// Succs returns the successors of node i. The returned slice is shared;
// callers must not modify it.
func (g *Graph) Succs(i int) []int { return g.succs[i] }

// Preds returns the predecessors of node i. The returned slice is shared.
func (g *Graph) Preds(i int) []int { return g.preds[i] }

// IsExceptionalEdge reports whether from→to is a trap (exception) edge.
func (g *Graph) IsExceptionalEdge(from, to int) bool {
	return g.exceptionalEdge[[2]int{from, to}]
}

// Reachable returns the set of nodes reachable from the entry node.
func (g *Graph) Reachable() []bool {
	seen := make([]bool, g.NumNodes())
	stack := []int{0}
	seen[0] = true
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, s := range g.succs[n] {
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
	return dominators(g.NumNodes(), 0, g.Succs, g.Preds)
}

// PostDominators returns ipdom over the reversed graph rooted at the
// synthetic exit node. Nodes that cannot reach the exit get -1.
func (g *Graph) PostDominators() []int {
	return dominators(g.NumNodes(), g.Exit(), g.Preds, g.Succs)
}

func dominators(n, root int, succs, preds func(int) []int) []int {
	// Reverse postorder from root.
	order := make([]int, 0, n)
	state := make([]uint8, n)
	var dfs func(int)
	dfs = func(u int) {
		state[u] = 1
		for _, v := range succs(u) {
			if state[v] == 0 {
				dfs(v)
			}
		}
		order = append(order, u)
	}
	dfs(root)
	// order is postorder; reverse it.
	for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
		order[i], order[j] = order[j], order[i]
	}
	rpoNum := make([]int, n)
	for i := range rpoNum {
		rpoNum[i] = -1
	}
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
			for _, p := range preds(u) {
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

// Loop is a natural loop: Head is the loop header, Body the set of nodes
// in the loop (including Head), and BackEdges the tail nodes of the back
// edges into Head.
type Loop struct {
	Head      int
	Body      map[int]bool
	BackEdges []int
}

// Contains reports whether node i belongs to the loop.
func (l *Loop) Contains(i int) bool { return l.Body[i] }

// SortedBody returns the loop body as a sorted slice.
func (l *Loop) SortedBody() []int {
	out := make([]int, 0, len(l.Body))
	for i := range l.Body {
		out = append(out, i)
	}
	sort.Ints(out)
	return out
}

// ExitEdges returns the (from, to) pairs leaving the loop.
func (l *Loop) ExitEdges(g *Graph) [][2]int {
	var out [][2]int
	for _, from := range l.SortedBody() {
		for _, to := range g.Succs(from) {
			if !l.Body[to] {
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
// do not recompute the dominator tree per query.
func (g *Graph) NaturalLoopsWith(idom []int) []*Loop {
	byHead := make(map[int]*Loop)
	n := g.NumNodes()
	for t := 0; t < n; t++ {
		for _, h := range g.succs[t] {
			if !Dominates(idom, h, t) {
				continue
			}
			l := byHead[h]
			if l == nil {
				l = &Loop{Head: h, Body: map[int]bool{h: true}}
				byHead[h] = l
			}
			l.BackEdges = append(l.BackEdges, t)
			// Collect the loop body: nodes that can reach t without
			// passing through h.
			stack := []int{t}
			for len(stack) > 0 {
				u := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				if l.Body[u] {
					continue
				}
				l.Body[u] = true
				for _, p := range g.preds[u] {
					if !l.Body[p] {
						stack = append(stack, p)
					}
				}
			}
		}
	}
	heads := make([]int, 0, len(byHead))
	for h := range byHead {
		heads = append(heads, h)
	}
	sort.Ints(heads)
	out := make([]*Loop, 0, len(heads))
	for _, h := range heads {
		out = append(out, byHead[h])
	}
	return out
}

// ControlDeps computes control dependence using post-dominators: node u is
// control dependent on branch node b if b has a successor s such that u
// post-dominates s but u does not post-dominate b. Returns deps[u] = set
// of b.
func (g *Graph) ControlDeps() map[int]map[int]bool {
	ipdom := g.PostDominators()
	deps := make(map[int]map[int]bool)
	n := g.NumNodes()
	for b := 0; b < n; b++ {
		if len(g.succs[b]) < 2 {
			continue
		}
		for _, s := range g.succs[b] {
			// Walk the post-dominator tree from s up to (excluding)
			// ipdom[b]; every node on the walk is control dependent on b.
			stop := ipdom[b]
			u := s
			for u >= 0 && u != stop {
				if u != b {
					if deps[u] == nil {
						deps[u] = make(map[int]bool)
					}
					deps[u][b] = true
				}
				if u == ipdom[u] {
					break
				}
				u = ipdom[u]
			}
		}
	}
	return deps
}

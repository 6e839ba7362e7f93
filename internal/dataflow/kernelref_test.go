package dataflow

import (
	"sort"

	"repro/internal/jimple"
)

// This file keeps the per-method kernels as they were before the CFG
// became CSR and reaching definitions were filed per local: adjacency
// lists, an edge map for exceptional flags, a recursive dominator
// search, map-based loops and control dependences, and a def search over
// every statement. They are the test-only reference the kernel
// differential (kernel_diff_test.go) holds the production kernels to.

// refGraph is the reference CFG of one method body.
type refGraph struct {
	m               *jimple.Method
	succs           [][]int
	preds           [][]int
	exceptionalEdge map[[2]int]bool
}

func refNew(m *jimple.Method) *refGraph {
	n := len(m.Body)
	g := &refGraph{
		m:               m,
		succs:           make([][]int, n+1),
		preds:           make([][]int, n+1),
		exceptionalEdge: make(map[[2]int]bool),
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
	for i, s := range m.Body {
		for _, t := range jimple.BranchTargets(nil, s) {
			addEdge(i, t, false)
		}
		if jimple.FallsThrough(s) {
			addEdge(i, i+1, false)
		}
		switch s.(type) {
		case *jimple.ReturnStmt:
			addEdge(i, n, false)
		case *jimple.ThrowStmt:
			covered := false
			for _, t := range m.Traps {
				if i >= t.Begin && i < t.End {
					addEdge(i, t.Handler, true)
					covered = true
				}
			}
			if !covered {
				addEdge(i, n, false)
			}
		}
	}
	for _, t := range m.Traps {
		for i := t.Begin; i < t.End && i < n; i++ {
			addEdge(i, t.Handler, true)
		}
	}
	return g
}

func (g *refGraph) withoutEdges(drop [][2]int) *refGraph {
	if len(drop) == 0 {
		return g
	}
	dropSet := make(map[[2]int]bool, len(drop))
	for _, e := range drop {
		dropSet[e] = true
	}
	ng := &refGraph{
		m:               g.m,
		succs:           make([][]int, len(g.succs)),
		preds:           make([][]int, len(g.preds)),
		exceptionalEdge: make(map[[2]int]bool),
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

func (g *refGraph) numNodes() int { return len(g.succs) }

func (g *refGraph) dominators() []int {
	return refDominators(g.numNodes(), 0, g.succs, g.preds)
}

func (g *refGraph) postDominators() []int {
	return refDominators(g.numNodes(), g.numNodes()-1, g.preds, g.succs)
}

func refDominators(n, root int, succs, preds [][]int) []int {
	order := make([]int, 0, n)
	state := make([]uint8, n)
	var dfs func(int)
	dfs = func(u int) {
		state[u] = 1
		for _, v := range succs[u] {
			if state[v] == 0 {
				dfs(v)
			}
		}
		order = append(order, u)
	}
	dfs(root)
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
			for _, p := range preds[u] {
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

func refDominates(idom []int, a, b int) bool {
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

// refLoop is the reference natural loop.
type refLoop struct {
	Head      int
	Body      map[int]bool
	BackEdges []int
}

func (g *refGraph) naturalLoopsWith(idom []int) []*refLoop {
	byHead := make(map[int]*refLoop)
	n := g.numNodes()
	for t := 0; t < n; t++ {
		for _, h := range g.succs[t] {
			if !refDominates(idom, h, t) {
				continue
			}
			l := byHead[h]
			if l == nil {
				l = &refLoop{Head: h, Body: map[int]bool{h: true}}
				byHead[h] = l
			}
			l.BackEdges = append(l.BackEdges, t)
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
	out := make([]*refLoop, 0, len(heads))
	for _, h := range heads {
		out = append(out, byHead[h])
	}
	return out
}

func (g *refGraph) controlDeps() map[int]map[int]bool {
	ipdom := g.postDominators()
	deps := make(map[int]map[int]bool)
	n := g.numNodes()
	for b := 0; b < n; b++ {
		if len(g.succs[b]) < 2 {
			continue
		}
		for _, s := range g.succs[b] {
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

// refReachDefs is the reference reaching-definitions result.
type refReachDefs struct {
	words int
	in    [][]uint64
	defAt []string
}

func newRefReachDefs(g *refGraph) *refReachDefs {
	body := g.m.Body
	n := len(body)
	r := &refReachDefs{
		words: (n + 63) / 64,
		in:    make([][]uint64, g.numNodes()),
		defAt: make([]string, n),
	}
	defsOf := make(map[string][]int)
	for i, s := range body {
		if d := jimple.DefOf(s); d != "" {
			r.defAt[i] = d
			defsOf[d] = append(defsOf[d], i)
		}
	}
	out := make([][]uint64, g.numNodes())
	for i := range r.in {
		r.in[i] = make([]uint64, r.words)
		out[i] = make([]uint64, r.words)
	}
	work := make([]int, 0, g.numNodes())
	inWork := make([]bool, g.numNodes())
	for i := 0; i < g.numNodes(); i++ {
		work = append(work, i)
		inWork[i] = true
	}
	for head := 0; head < len(work); head++ {
		u := work[head]
		inWork[u] = false
		for w := 0; w < r.words; w++ {
			r.in[u][w] = 0
		}
		for _, p := range g.preds[u] {
			for w := 0; w < r.words; w++ {
				r.in[u][w] |= out[p][w]
			}
		}
		changed := false
		for w := 0; w < r.words; w++ {
			nv := r.in[u][w]
			if u < n && r.defAt[u] != "" {
				for _, d := range defsOf[r.defAt[u]] {
					if d/64 == w {
						nv &^= 1 << uint(d%64)
					}
				}
				if u/64 == w {
					nv |= 1 << uint(u%64)
				}
			}
			if out[u][w] != nv {
				out[u][w] = nv
				changed = true
			}
		}
		if changed {
			for _, s := range g.succs[u] {
				if !inWork[s] {
					inWork[s] = true
					work = append(work, s)
				}
			}
		}
	}
	return r
}

func (r *refReachDefs) defsReaching(stmt int, local string) []int {
	var out []int
	bits := r.in[stmt]
	for i := 0; i < len(r.defAt); i++ {
		if r.defAt[i] == local && bits[i/64]&(1<<uint(i%64)) != 0 {
			out = append(out, i)
		}
	}
	sort.Ints(out)
	return out
}

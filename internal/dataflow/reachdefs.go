// Package dataflow implements the program analyses NChecker's checkers are
// built from: reaching definitions, constant propagation, forward taint
// tracking, backward slicing over data and control dependence, and an
// interprocedural must-precede analysis. All intraprocedural analyses
// operate on internal/cfg graphs; the interprocedural analysis operates on
// internal/callgraph graphs.
package dataflow

import (
	"slices"

	"repro/internal/cfg"
	"repro/internal/jimple"
)

// ReachDefs holds the result of a reaching-definitions analysis of one
// method: for each statement, the set of definition sites (statement
// indexes) whose values may reach it. Definition sites are filed by the
// local they define (its cfg.Graph.Locals id), so a query walks only that
// local's sites.
type ReachDefs struct {
	g     *cfg.Graph
	names []string // g.Locals()
	words int
	in    []uint64 // per node, words bits over def statement indexes
	// defAt[i] is the local id stmt i defines, or -1; the sites defining
	// local l are defs[defOff[l]:defOff[l+1]], ascending.
	defAt  []int32
	defOff []int32
	defs   []int32
	cp     ConstProp // the constant propagation over this result
	// sc is the scratch r was carved from, which the object-call searches
	// over r carve from too.
	sc *Scratch
}

// rdScratch is the worklist state of one NewReachDefs run, a Scratch's
// rd.
type rdScratch struct {
	out    []uint64
	row    []uint64
	queue  []int
	inWork []bool
}

// NewReachDefs runs the classic gen/kill worklist algorithm on g, its
// result carved from sc; a nil sc means a fresh Scratch, which the result
// keeps to itself and nothing resets.
func NewReachDefs(sc *Scratch, g *cfg.Graph) *ReachDefs {
	if sc == nil {
		sc = new(Scratch)
	}
	body := g.Method.Body
	n, nn := len(body), g.NumNodes()
	names := g.Locals()
	r := sc.rds.New()
	*r = ReachDefs{g: g, names: names, words: (n + 63) / 64, sc: sc}
	r.cp.rd = r
	// One slab holds the def index: defAt, then defOff, then defs (at
	// most one site per statement).
	idx := sc.int32s.Make(n + len(names) + 1 + n)
	r.defAt, r.defOff = idx[:n:n], idx[n:n+len(names)+1:n+len(names)+1]
	ndefs := 0
	for i, s := range body {
		r.defAt[i] = -1
		if d := jimple.DefOf(s); d != "" {
			l := cfg.LocalIn(names, d)
			r.defAt[i] = int32(l)
			r.defOff[l+1]++
			ndefs++
		}
	}
	// defOff[l+1] holds local l's count; turn it into l's start, then
	// advance it past each site filed, which leaves it at l's end.
	sum := int32(0)
	for l := range names {
		c := r.defOff[l+1]
		r.defOff[l+1] = sum
		sum += c
	}
	r.defs = idx[n+len(names)+1 : n+len(names)+1+ndefs : n+len(names)+1+ndefs]
	for i, l := range r.defAt {
		if l >= 0 {
			r.defs[r.defOff[l+1]] = int32(i)
			r.defOff[l+1]++
		}
	}
	w := r.words
	r.in = sc.words.Make(nn * w)
	s := &sc.rd
	out := slices.Grow(s.out[:0], nn*w)[:nn*w]
	clear(out)
	s.out = out
	// Worklist over nodes (statement indexes; the synthetic exit has no
	// body statement and acts as a plain join): a FIFO ring holding each
	// node at most once.
	queue := slices.Grow(s.queue[:0], nn)[:nn]
	inWork := slices.Grow(s.inWork[:0], nn)[:nn]
	s.queue, s.inWork = queue, inWork
	for i := range queue {
		queue[i] = i
		inWork[i] = true
	}
	nv := slices.Grow(s.row[:0], w)
	s.row = nv
	for head, queued := 0, nn; queued > 0; head, queued = (head+1)%nn, queued-1 {
		u := queue[head]
		inWork[u] = false
		// in[u] = union of out[p]
		in := r.in[u*w : (u+1)*w]
		clear(in)
		for _, p := range g.Preds(u) {
			for k, x := range out[p*w : (p+1)*w] {
				in[k] |= x
			}
		}
		// out[u] = gen(u) ∪ (in[u] − kill(u))
		nv = append(nv[:0], in...)
		if u < n && r.defAt[u] >= 0 {
			l := r.defAt[u]
			for _, d := range r.defs[r.defOff[l]:r.defOff[l+1]] {
				nv[d>>6] &^= 1 << (d & 63)
			}
			nv[u>>6] |= 1 << (u & 63)
		}
		if o := out[u*w : (u+1)*w]; !slices.Equal(o, nv) {
			copy(o, nv)
			for _, v := range g.Succs(u) {
				if !inWork[v] {
					inWork[v] = true
					queue[(head+queued)%nn] = v
					queued++
				}
			}
		}
	}
	return r
}

// DefsReaching returns the definition sites of local that reach stmt
// (i.e. may supply its value when stmt reads it), sorted ascending.
func (r *ReachDefs) DefsReaching(stmt int, local string) []int {
	return r.appendDefsReaching(nil, stmt, local)
}

// appendDefsReaching appends DefsReaching(stmt, local) to dst.
func (r *ReachDefs) appendDefsReaching(dst []int, stmt int, local string) []int {
	l := cfg.LocalIn(r.names, local)
	if l < 0 {
		return dst
	}
	in := r.in[stmt*r.words : (stmt+1)*r.words]
	for _, d := range r.defs[r.defOff[l]:r.defOff[l+1]] {
		if in[d>>6]&(1<<(d&63)) != 0 {
			dst = append(dst, int(d))
		}
	}
	return dst
}

// DefOfStmt returns the local defined by statement i, or "".
func (r *ReachDefs) DefOfStmt(i int) string {
	if i < 0 || i >= len(r.defAt) || r.defAt[i] < 0 {
		return ""
	}
	return r.names[r.defAt[i]]
}

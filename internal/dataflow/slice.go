package dataflow

import (
	"sort"

	"repro/internal/cfg"
	"repro/internal/jimple"
)

// Slicer computes intraprocedural backward slices over data and control
// dependence, the primitive NChecker's retry-loop identification uses to
// connect loop-exit conditions to catch-block statements (paper §4.5:
// "Backward slicing is used to obtain the control dependency
// information").
type Slicer struct {
	g    *cfg.Graph
	rd   *ReachDefs
	cd   [][]int // control dependences, cfg.Graph.ControlDeps
	body []jimple.Stmt
}

// NewSlicer prepares a slicer for g, reusing a ReachDefs result.
func NewSlicer(g *cfg.Graph, rd *ReachDefs) *Slicer {
	return &Slicer{g: g, rd: rd, cd: g.ControlDeps(), body: g.Method.Body}
}

// BackwardSlice returns the set of statement indexes the seed statements
// transitively depend on (through data and control dependence), including
// the seeds themselves.
func (s *Slicer) BackwardSlice(seeds ...int) map[int]bool {
	inSlice := make(map[int]bool)
	work := append([]int(nil), seeds...)
	for len(work) > 0 {
		u := work[len(work)-1]
		work = work[:len(work)-1]
		if inSlice[u] || u < 0 || u >= len(s.body) {
			continue
		}
		inSlice[u] = true
		// Data dependence: definitions of every local u reads.
		var uses []string
		uses = jimple.UsesOf(uses, s.body[u])
		for _, l := range uses {
			work = s.rd.appendDefsReaching(work, u, l)
		}
		// Control dependence: the branches governing u.
		for _, b := range s.cd[u] {
			if !inSlice[b] {
				work = append(work, b)
			}
		}
	}
	return inSlice
}

// SortedSlice is BackwardSlice flattened to a sorted slice.
func (s *Slicer) SortedSlice(seeds ...int) []int {
	m := s.BackwardSlice(seeds...)
	out := make([]int, 0, len(m))
	for i := range m {
		out = append(out, i)
	}
	sort.Ints(out)
	return out
}

// DependsOnAny reports whether the backward slice of seed intersects the
// given statement set.
func (s *Slicer) DependsOnAny(seed int, stmts map[int]bool) bool {
	slice := s.BackwardSlice(seed)
	for i := range slice {
		if i != seed && stmts[i] {
			return true
		}
	}
	return false
}

package dataflow

import (
	"repro/internal/arena"
	"repro/internal/jimple"
)

// Scratch is the memory a scan's per-method dataflow results are carved
// from (see package arena): the reaching-definitions results with their
// bit rows and def indexes, the forward-taint results and worklists, and
// the object-call lists, beside the working arrays of the computations.
// A scan resets its scratch when it ends, after which every result carved
// from it is invalid.
type Scratch struct {
	rds    arena.Slab[ReachDefs]
	taints arena.Slab[TaintResult]
	words  arena.Slab[uint64]
	int32s arena.Slab[int32]
	ints   arena.Slab[int]
	bools  arena.Slab[bool]
	ocalls arena.Slab[ObjectCall]
	// The must-precede analysis's per-method states and fact rows.
	mpStates arena.Slab[mpMethodState]
	mpPtrs   arena.Slab[*mpMethodState]
	boolRows arena.Slab[[]bool]
	// The interprocedural summaries and their builder's arrays.
	summaries arena.Slab[TaintSummary]
	sumPtrs   arena.Slab[*TaintSummary]
	callLists arena.Slab[[]SummaryCall]
	nodes     arena.Slab[sumNode]
	sumBufs   sumBufs
	// calls is the buffer an object-call search collects into before its
	// result is carved at exact size; nil while a search holds it.
	calls []ObjectCall
	// rd is the worklist state of NewReachDefs.
	rd rdScratch
}

// Reset makes s's memory free for the next scan (arena.Slab.Reset).
func (s *Scratch) Reset() {
	s.rds.Reset(func(r *ReachDefs) { *r = ReachDefs{words: -1, names: junkNames} })
	s.taints.Reset(func(t *TaintResult) { *t = TaintResult{w: -1, names: junkNames} })
	s.words.Reset(func(w *uint64) { *w = ^uint64(0) })
	s.int32s.Reset(func(x *int32) { *x = -1 << 20 })
	s.ints.Reset(func(x *int) { *x = -1 << 40 })
	s.bools.Reset(func(x *bool) { *x = true })
	s.ocalls.Reset(func(c *ObjectCall) { *c = ObjectCall{Stmt: -1, Callee: junkSig} })
	s.mpStates.Reset(func(st *mpMethodState) { *st = mpMethodState{id: -1, m: &junkMethod} })
	s.mpPtrs.Reset(func(p **mpMethodState) { *p = &junkState })
	s.boolRows.Reset(func(r *[]bool) { *r = junkRow })
	s.summaries.Reset(func(t *TaintSummary) { *t = TaintSummary{Inputs: -1, CallsOnRet: junkCalls} })
	s.sumPtrs.Reset(func(p **TaintSummary) { *p = &junkSummary })
	s.callLists.Reset(func(l *[]SummaryCall) { *l = junkCalls })
	s.nodes.Reset(func(n *sumNode) { *n = sumNode{key: arena.Junk, id: -1, m: &junkMethod} })
	clear(s.calls[:cap(s.calls)])
	s.calls = arena.Keep(s.calls[:0])
	r := &s.rd
	r.out, r.row, r.queue, r.inWork = arena.Keep(r.out), arena.Keep(r.row), arena.Keep(r.queue), arena.Keep(r.inWork)
}

// junkNames and junkSig are what a test binary writes over a reset
// scratch.
var (
	junkNames   = []string{arena.Junk}
	junkSig     = jimple.Sig{Class: arena.Junk, Name: arena.Junk}
	junkMethod  = jimple.Method{Sig: junkSig}
	junkState   = mpMethodState{id: -1, m: &junkMethod}
	junkRow     = []bool{true}
	junkCalls   = []SummaryCall{{Callee: junkSig}}
	junkSummary = TaintSummary{Inputs: -1, CallsOnRet: junkCalls}
)

// takeCalls returns the object-call buffer, empty, for a search to
// collect into; giveCalls takes the buffer back, grown to buf, and
// returns the search's result out (which may alias buf) at exact size,
// carved from s.
func (s *Scratch) takeCalls() []ObjectCall {
	buf := s.calls[:0]
	s.calls = nil
	return buf
}

func (s *Scratch) giveCalls(buf, out []ObjectCall) []ObjectCall {
	var exact []ObjectCall
	if len(out) > 0 {
		exact = s.ocalls.Make(len(out))
		copy(exact, out)
	}
	clear(buf[:cap(buf)])
	s.calls = buf[:0]
	return exact
}

// takeSumBufs hands the summary builder's working arrays to a
// computation, and giveSumBufs takes them back when it ends, the arrays
// past arena.MaxKeptBytes dropped.
func (s *Scratch) takeSumBufs() sumBufs {
	b := s.sumBufs
	s.sumBufs = sumBufs{}
	return b
}

func (s *Scratch) giveSumBufs(b sumBufs) {
	clear(b.rows[:cap(b.rows)])
	b.arena, b.rows = arena.Keep(b.arena), arena.Keep(b.rows)
	b.work, b.inWork = arena.Keep(b.work), arena.Keep(b.inWork)
	s.sumBufs = b
}

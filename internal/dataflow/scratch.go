package dataflow

import (
	"unsafe"

	"repro/internal/arena"
	"repro/internal/jimple"
)

// Scratch is the memory a scan's per-method dataflow results are carved
// from (see package arena): the reaching-definitions results with their
// bit rows and def indexes, the forward-taint results and worklists, and
// the object-call lists. A nil *Scratch allocates from the heap. A scan
// resets its scratch when it ends, after which every result carved from
// it is invalid.
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
}

// maxScratchBytes bounds what each of a Scratch's slabs keeps for the
// next scan.
const maxScratchBytes = 16 << 10

// Reset makes s's memory free for the next scan (arena.Slab.Reset).
func (s *Scratch) Reset() {
	if s == nil {
		return
	}
	s.rds.Reset(maxScratchBytes, func(r *ReachDefs) { *r = ReachDefs{words: -1, names: junkNames} })
	s.taints.Reset(maxScratchBytes, func(t *TaintResult) { *t = TaintResult{w: -1, names: junkNames} })
	s.words.Reset(maxScratchBytes, func(w *uint64) { *w = ^uint64(0) })
	s.int32s.Reset(maxScratchBytes, func(x *int32) { *x = -1 << 20 })
	s.ints.Reset(maxScratchBytes, func(x *int) { *x = -1 << 40 })
	s.bools.Reset(maxScratchBytes, func(x *bool) { *x = true })
	s.ocalls.Reset(maxScratchBytes, func(c *ObjectCall) { *c = ObjectCall{Stmt: -1, Callee: junkSig} })
	s.mpStates.Reset(maxScratchBytes, func(st *mpMethodState) { *st = mpMethodState{id: -1, m: &junkMethod} })
	s.mpPtrs.Reset(maxScratchBytes, func(p **mpMethodState) { *p = &junkState })
	s.boolRows.Reset(maxScratchBytes, func(r *[]bool) { *r = junkRow })
	s.summaries.Reset(maxScratchBytes, func(t *TaintSummary) { *t = TaintSummary{Inputs: -1, CallsOnRet: junkCalls} })
	s.sumPtrs.Reset(maxScratchBytes, func(p **TaintSummary) { *p = &junkSummary })
	s.callLists.Reset(maxScratchBytes, func(l *[]SummaryCall) { *l = junkCalls })
	s.nodes.Reset(maxScratchBytes, func(n *sumNode) { *n = sumNode{key: junkNames[0], id: -1, m: &junkMethod} })
	clear(s.calls[:cap(s.calls)])
	s.calls = s.calls[:0]
	if cap(s.calls)*int(unsafe.Sizeof(ObjectCall{})) > maxScratchBytes {
		s.calls = nil
	}
}

// junkNames and junkSig are what a test binary writes over a reset
// scratch.
var (
	junkNames   = []string{"\x00recycled"}
	junkSig     = jimple.Sig{Class: junkNames[0], Name: junkNames[0]}
	junkMethod  = jimple.Method{Sig: junkSig}
	junkState   = mpMethodState{id: -1, m: &junkMethod}
	junkRow     = []bool{true}
	junkCalls   = []SummaryCall{{Callee: junkSig}}
	junkSummary = TaintSummary{Inputs: -1, CallsOnRet: junkCalls}
)

func (s *Scratch) rdSlab() *arena.Slab[ReachDefs] {
	if s == nil {
		return nil
	}
	return &s.rds
}

func (s *Scratch) wordSlab() *arena.Slab[uint64] {
	if s == nil {
		return nil
	}
	return &s.words
}

func (s *Scratch) int32Slab() *arena.Slab[int32] {
	if s == nil {
		return nil
	}
	return &s.int32s
}

func (s *Scratch) taintSlab() *arena.Slab[TaintResult] {
	if s == nil {
		return nil
	}
	return &s.taints
}

func (s *Scratch) intSlab() *arena.Slab[int] {
	if s == nil {
		return nil
	}
	return &s.ints
}

func (s *Scratch) boolSlab() *arena.Slab[bool] {
	if s == nil {
		return nil
	}
	return &s.bools
}

// takeCalls returns the object-call buffer, empty, for a search to
// collect into; giveCalls takes the buffer back, grown to buf, and
// returns the search's result out (which may alias buf) at exact size,
// carved from s. A nil s collects into a heap slice and returns out as
// it is.
func (s *Scratch) takeCalls() []ObjectCall {
	if s == nil {
		return nil
	}
	buf := s.calls[:0]
	s.calls = nil
	return buf
}

func (s *Scratch) giveCalls(buf, out []ObjectCall) []ObjectCall {
	if s == nil {
		return out
	}
	var exact []ObjectCall
	if len(out) > 0 {
		exact = s.ocalls.Make(len(out))
		copy(exact, out)
	}
	clear(buf[:cap(buf)])
	s.calls = buf[:0]
	return exact
}

func (s *Scratch) mpStateSlab() *arena.Slab[mpMethodState] {
	if s == nil {
		return nil
	}
	return &s.mpStates
}

func (s *Scratch) mpPtrSlab() *arena.Slab[*mpMethodState] {
	if s == nil {
		return nil
	}
	return &s.mpPtrs
}

func (s *Scratch) boolRowSlab() *arena.Slab[[]bool] {
	if s == nil {
		return nil
	}
	return &s.boolRows
}

func (s *Scratch) summarySlab() *arena.Slab[TaintSummary] {
	if s == nil {
		return nil
	}
	return &s.summaries
}

func (s *Scratch) sumPtrSlab() *arena.Slab[*TaintSummary] {
	if s == nil {
		return nil
	}
	return &s.sumPtrs
}

func (s *Scratch) callListSlab() *arena.Slab[[]SummaryCall] {
	if s == nil {
		return nil
	}
	return &s.callLists
}

func (s *Scratch) nodeSlab() *arena.Slab[sumNode] {
	if s == nil {
		return nil
	}
	return &s.nodes
}

// takeSumBufs hands the summary builder's working arrays to a
// computation, and giveSumBufs takes them back when it ends, the arrays
// above maxScratchBytes dropped. A nil s hands out none.
func (s *Scratch) takeSumBufs() sumBufs {
	if s == nil {
		return sumBufs{}
	}
	b := s.sumBufs
	s.sumBufs = sumBufs{}
	return b
}

func (s *Scratch) giveSumBufs(b sumBufs) {
	if s == nil {
		return
	}
	clear(b.rows[:cap(b.rows)])
	if cap(b.arena)*int(unsafe.Sizeof(aliasFact{})) > maxScratchBytes {
		b.arena = nil
	}
	if cap(b.rows)*int(unsafe.Sizeof(aliasRow{})) > maxScratchBytes {
		b.rows = nil
	}
	if cap(b.work)*int(unsafe.Sizeof(0)) > maxScratchBytes {
		b.work, b.inWork = nil, nil
	}
	s.sumBufs = b
}

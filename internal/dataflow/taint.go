package dataflow

import (
	"math/bits"
	"slices"
	"sort"

	"repro/internal/cfg"
	"repro/internal/jimple"
)

// TaintOptions configures forward taint propagation.
type TaintOptions struct {
	// TaintThroughReceiver taints the result of a call whose receiver is
	// tainted (r = resp.getBody() taints r when resp is tainted). On by
	// default via DefaultTaintOptions.
	TaintThroughReceiver bool
	// TaintThroughArgs taints the result of a call when any argument is
	// tainted.
	TaintThroughArgs bool
	// TaintStoredInto taints the base object of a field store whose
	// stored value is tainted (object-level field insensitivity).
	TaintStoredInto bool
	// CalleeSummaries, when non-nil, resolves a call site to its callees'
	// taint summaries, making the propagation interprocedural: call
	// results derive taint through the callee's RetFrom relation instead
	// of the receiver heuristic, and callee state effects (StateFrom)
	// taint the bound caller locals.
	CalleeSummaries SummaryResolver
}

// DefaultTaintOptions matches NChecker's object-taint behaviour.
func DefaultTaintOptions() TaintOptions {
	return TaintOptions{TaintThroughReceiver: true, TaintStoredInto: true}
}

// TaintResult reports, per statement, which locals may be tainted when the
// statement executes (a may-analysis: union over paths).
type TaintResult struct {
	names []string // local ids: the method's Locals, plus any extra source
	w     int      // words per row
	in    []uint64 // per node, a w-word bitset over local ids
}

// TaintedAt reports whether local may be tainted immediately before stmt
// executes.
func (t *TaintResult) TaintedAt(stmt int, local string) bool {
	if stmt < 0 || stmt*t.w >= len(t.in) {
		return false
	}
	return taintRow{names: t.names, bits: t.in[stmt*t.w : (stmt+1)*t.w]}.has(local)
}

// TaintedLocalsAt returns the sorted tainted-local set before stmt.
func (t *TaintResult) TaintedLocalsAt(stmt int) []string {
	out := []string{}
	for i, w := range t.in[stmt*t.w : (stmt+1)*t.w] {
		for ; w != 0; w &= w - 1 {
			out = append(out, t.names[i*64+bits.TrailingZeros64(w)])
		}
	}
	return out
}

// taintRow is one node's tainted-local set during propagation.
type taintRow struct {
	names []string
	bits  []uint64
}

func (r taintRow) has(local string) bool {
	id := cfg.LocalIn(r.names, local)
	return id >= 0 && r.bits[id>>6]&(1<<(id&63)) != 0
}

func (r taintRow) add(local string) {
	if id := cfg.LocalIn(r.names, local); id >= 0 {
		r.bits[id>>6] |= 1 << (id & 63)
	}
}

func (r taintRow) remove(local string) {
	if id := cfg.LocalIn(r.names, local); id >= 0 {
		r.bits[id>>6] &^= 1 << (id & 63)
	}
}

// ForwardTaint propagates taint forward from sources, where sources maps a
// statement index to locals that become tainted immediately after that
// statement executes (e.g. the def site of a response object).
//
// Taint sets are bitsets over the method's local ids (cfg.Graph.Locals):
// one slab holds every node's in and out rows. The result and the
// worklist are carved from sc; a nil sc means a fresh Scratch, which
// nothing resets.
func ForwardTaint(sc *Scratch, g *cfg.Graph, sources map[int][]string, opts TaintOptions) *TaintResult {
	if sc == nil {
		sc = new(Scratch)
	}
	names := g.Locals()
	for _, ls := range sources {
		for _, l := range ls {
			if cfg.LocalIn(names, l) < 0 {
				// A source the body never names: number it privately.
				names = append(slices.Clip(names), l)
				slices.Sort(names)
			}
		}
	}
	n := g.NumNodes()
	w := max(1, (len(names)+63)/64)
	slab := sc.words.Make((2*n + 1) * w)
	in, out, scratch := slab[:n*w], slab[n*w:2*n*w], slab[2*n*w:]
	row := func(rows []uint64, u int) []uint64 { return rows[u*w : (u+1)*w] }
	body := g.Method.Body
	work := sc.ints.Make(n)[:0]
	inWork := sc.bools.Make(n)
	push := func(i int) {
		if !inWork[i] {
			inWork[i] = true
			work = append(work, i)
		}
	}
	for i := 0; i < n; i++ {
		push(i)
	}
	for head := 0; head < len(work); head++ {
		u := work[head]
		inWork[u] = false
		// in[u] = union of out[preds]
		nu := row(in, u)
		clear(nu)
		tainted := uint64(0)
		for _, p := range g.Preds(u) {
			for i, b := range row(out, p) {
				nu[i] |= b
				tainted |= b
			}
		}
		// transfer
		copy(scratch, nu)
		if u < len(body) {
			// With no incoming taint and no sources the transfer is a no-op
			// (every write is guarded by an existing-taint read), so that
			// case skips it wholesale, summary lookups included.
			if srcs := sources[u]; tainted != 0 || len(srcs) > 0 {
				cur := taintRow{names: names, bits: scratch}
				applyTaintTransfer(body[u], u, cur, opts)
				for _, l := range srcs {
					cur.add(l)
				}
			}
		}
		if o := row(out, u); !slices.Equal(o, scratch) {
			copy(o, scratch)
			for _, s := range g.Succs(u) {
				push(s)
			}
		}
	}
	t := sc.taints.New()
	*t = TaintResult{names: names, w: w, in: in}
	return t
}

func applyTaintTransfer(s jimple.Stmt, at int, taint taintRow, opts TaintOptions) {
	// Interprocedural state effects: a callee that stores one input into
	// another's object state taints the bound caller local.
	if opts.CalleeSummaries != nil {
		if inv, ok := jimple.InvokeOf(s); ok {
			applyTaintStateEffects(inv, opts.CalleeSummaries(at), taint)
		}
	}
	a, ok := s.(*jimple.AssignStmt)
	if !ok {
		return
	}
	// Field store: x.f = v may taint x.
	if f, isField := a.LHS.(jimple.FieldRef); isField {
		if opts.TaintStoredInto && f.Base != "" && valueTainted(a.RHS, at, taint, opts) {
			taint.add(f.Base)
		}
		return
	}
	dst := a.LHS.(jimple.Local).Name
	if valueTainted(a.RHS, at, taint, opts) {
		taint.add(dst)
	} else {
		taint.remove(dst) // strong update: overwritten with untainted value
	}
}

func applyTaintStateEffects(inv jimple.InvokeExpr, sums []*TaintSummary, taint taintRow) {
	for _, sum := range sums {
		if sum == nil {
			continue
		}
		for tOut := 0; tOut < sum.Inputs; tOut++ {
			if sum.StateFrom[tOut] == 0 {
				continue
			}
			outLocal := tokenLocal(inv, tOut)
			if outLocal == "" || taint.has(outLocal) {
				continue
			}
			for tIn := 0; tIn < sum.Inputs; tIn++ {
				if sum.StateFrom[tOut]&bit(tIn) != 0 {
					if l := tokenLocal(inv, tIn); l != "" && taint.has(l) {
						taint.add(outLocal)
						break
					}
				}
			}
		}
	}
}

func valueTainted(v jimple.Value, at int, taint taintRow, opts TaintOptions) bool {
	switch v := v.(type) {
	case jimple.Local:
		return taint.has(v.Name)
	case jimple.CastExpr:
		return valueTainted(v.V, at, taint, opts)
	case jimple.FieldRef:
		// Field load from a tainted object yields taint.
		return v.Base != "" && taint.has(v.Base)
	case jimple.InvokeExpr:
		if opts.CalleeSummaries != nil {
			if sums := opts.CalleeSummaries(at); len(sums) > 0 {
				// Summarized callees: the result is tainted exactly when
				// the callee derives its return from a tainted binding.
				for _, sum := range sums {
					if sum == nil {
						continue
					}
					for t := 0; t < sum.Inputs; t++ {
						if sum.RetFrom&bit(t) != 0 {
							if l := tokenLocal(v, t); l != "" && taint.has(l) {
								return true
							}
						}
					}
				}
				return false
			}
		}
		if opts.TaintThroughReceiver && v.Base != "" && taint.has(v.Base) {
			return true
		}
		if opts.TaintThroughArgs {
			for _, a := range v.Args {
				if valueTainted(a, at, taint, opts) {
					return true
				}
			}
		}
		return false
	case jimple.BinExpr:
		return valueTainted(v.L, at, taint, opts) || valueTainted(v.R, at, taint, opts)
	case jimple.NegExpr:
		return valueTainted(v.V, at, taint, opts)
	case jimple.InstanceOfExpr:
		return valueTainted(v.V, at, taint, opts)
	default:
		return false
	}
}

// AllocSitesOf chases the definition chain of local at stmt backward
// through copies and casts to the allocation or call sites that produce
// the object — the "backward propagation until reaching the call site of
// creating the instance" step of paper §4.4.1. It returns the statement
// indexes of the originating definitions (NewExpr, InvokeExpr, ParamRef,
// FieldRef or CaughtExRef right-hand sides), sorted.
func AllocSitesOf(rd *ReachDefs, stmt int, local string) []int {
	type visit struct {
		at int
		l  string
	}
	seen := make(map[visit]bool)
	var out []int
	outSet := make(map[int]bool)
	var walk func(at int, l string)
	walk = func(at int, l string) {
		key := visit{at, l}
		if seen[key] {
			return
		}
		seen[key] = true
		for _, d := range rd.DefsReaching(at, l) {
			a, ok := rd.g.Method.Body[d].(*jimple.AssignStmt)
			if !ok {
				continue
			}
			switch rhs := a.RHS.(type) {
			case jimple.Local:
				walk(d, rhs.Name)
			case jimple.CastExpr:
				if inner, isLocal := rhs.V.(jimple.Local); isLocal {
					walk(d, inner.Name)
				} else if !outSet[d] {
					outSet[d] = true
					out = append(out, d)
				}
			default:
				if !outSet[d] {
					outSet[d] = true
					out = append(out, d)
				}
			}
		}
	}
	walk(stmt, local)
	sort.Ints(out)
	return out
}

// ObjectFlow combines the backward and forward halves of NChecker's
// config-API discovery: starting from the use of local at stmt, it finds
// the object's allocation sites, then taints forward from each and returns
// every invocation statement whose receiver is an alias of the object,
// with the method invoked. The result is sorted by statement index.
type ObjectCall struct {
	Stmt   int
	Callee jimple.Sig
	// Args carries pre-evaluated constant arguments when the call was
	// discovered through a callee's summary — the caller's ConstProp
	// cannot see into another method's body. nil for calls found in the
	// analyzed method itself (callers evaluate those locally).
	Args []SummaryArg
}

// CallsOnObject returns all calls whose receiver aliases the object that
// local denotes at stmt.
func CallsOnObject(g *cfg.Graph, rd *ReachDefs, stmt int, local string) []ObjectCall {
	allocs := AllocSitesOf(rd, stmt, local)
	sources := make(map[int][]string)
	for _, d := range allocs {
		if def := rd.DefOfStmt(d); def != "" {
			sources[d] = append(sources[d], def)
		}
	}
	// The object may also be directly the local with no visible alloc
	// (e.g. parameter identity not modeled); fall back to tainting the
	// local at its first reaching def or method entry.
	if len(sources) == 0 {
		sources[0] = []string{local}
	}
	taint := ForwardTaint(rd.sc, g, sources, DefaultTaintOptions())
	var out []ObjectCall
	for i, s := range g.Method.Body {
		inv, ok := jimple.InvokeOf(s)
		if !ok || inv.Base == "" {
			continue
		}
		// Receiver tainted before the call executes — but the def site
		// itself has taint only after, so also accept the def statement.
		if taint.TaintedAt(i, inv.Base) || sourcesContain(sources, i, inv.Base) {
			out = append(out, ObjectCall{Stmt: i, Callee: inv.Callee})
		}
	}
	return out
}

// CallsOnObjectInter is CallsOnObject with interprocedural vision: calls
// the object's aliases receive inside summarized callees — passed as
// receiver or argument (CallsOn), or made on the object inside the
// factory that produced it (CallsOnRet) — are reported at the caller-side
// site, with the callee-context constant arguments attached. A nil
// resolver degrades to CallsOnObject.
func CallsOnObjectInter(g *cfg.Graph, rd *ReachDefs, stmt int, local string, resolve SummaryResolver) []ObjectCall {
	if resolve == nil {
		return CallsOnObject(g, rd, stmt, local)
	}
	allocs := AllocSitesOf(rd, stmt, local)
	sources := make(map[int][]string)
	for _, d := range allocs {
		if def := rd.DefOfStmt(d); def != "" {
			sources[d] = append(sources[d], def)
		}
	}
	if len(sources) == 0 {
		sources[0] = []string{local}
	}
	opts := DefaultTaintOptions()
	opts.CalleeSummaries = resolve
	taint := ForwardTaint(rd.sc, g, sources, opts)
	isAlias := func(i int, name string) bool {
		return taint.TaintedAt(i, name) || sourcesContain(sources, i, name)
	}
	// The calls collect into the scratch's buffer, and the deduplicated
	// list is carved from the scratch at exact size.
	out := rd.sc.takeCalls()
	for i, s := range g.Method.Body {
		inv, ok := jimple.InvokeOf(s)
		if !ok {
			continue
		}
		if inv.Base != "" && isAlias(i, inv.Base) {
			out = append(out, ObjectCall{Stmt: i, Callee: inv.Callee})
		}
		for _, sum := range resolve(i) {
			if sum == nil {
				continue
			}
			for _, t := range BoundTokens(inv, sum, func(name string) bool { return isAlias(i, name) }) {
				for _, sc := range sum.CallsOn[t] {
					out = append(out, ObjectCall{Stmt: i, Callee: sc.Callee, Args: sc.Args})
				}
			}
		}
	}
	// Factory allocations: calls made inside a summarized producer on the
	// object it returned.
	for _, d := range allocs {
		inv, ok := jimple.InvokeOf(g.Method.Body[d])
		if !ok {
			continue
		}
		for _, sum := range resolve(d) {
			if sum == nil {
				continue
			}
			for _, sc := range sum.CallsOnRet {
				out = append(out, ObjectCall{Stmt: d, Callee: sc.Callee, Args: sc.Args})
			}
			for t := 0; t < sum.Inputs; t++ {
				if sum.RetFrom&bit(t) != 0 && tokenLocal(inv, t) != "" {
					for _, sc := range sum.CallsOn[t] {
						out = append(out, ObjectCall{Stmt: d, Callee: sc.Callee, Args: sc.Args})
					}
				}
			}
		}
	}
	return rd.sc.giveCalls(out, dedupeObjectCalls(out))
}

// dedupeObjectCalls sorts by (statement, callee key, args) and removes
// duplicates, keeping caller-side entries (nil Args) distinct from
// summary-mapped ones.
func dedupeObjectCalls(calls []ObjectCall) []ObjectCall {
	if len(calls) == 0 {
		return nil
	}
	// Render each callee key once up front; sorting and dedup below compare
	// the cached strings instead of re-rendering per comparison.
	keys := calleeKeys(len(calls), func(i int) jimple.Sig { return calls[i].Callee })
	sort.Stable(&objectCallSorter{calls: calls, keys: keys})
	out := calls[:1]
	last := 0
	for i := 1; i < len(calls); i++ {
		prev := &out[len(out)-1]
		cur := &calls[i]
		if prev.Stmt == cur.Stmt && keys[last] == keys[i] && sameArgs(prev.Args, cur.Args) {
			continue
		}
		out = append(out, *cur)
		last = i
	}
	return out
}

type objectCallSorter struct {
	calls []ObjectCall
	keys  []string
}

func (s *objectCallSorter) Len() int { return len(s.calls) }

func (s *objectCallSorter) Swap(i, j int) {
	s.calls[i], s.calls[j] = s.calls[j], s.calls[i]
	s.keys[i], s.keys[j] = s.keys[j], s.keys[i]
}

func (s *objectCallSorter) Less(i, j int) bool {
	a, b := &s.calls[i], &s.calls[j]
	if a.Stmt != b.Stmt {
		return a.Stmt < b.Stmt
	}
	if s.keys[i] != s.keys[j] {
		return s.keys[i] < s.keys[j]
	}
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

// calleeKeys renders the keys of n signatures back to back into one
// string and returns them as substrings of it: a list's keys cost two
// allocations, not one per signature.
func calleeKeys(n int, sig func(int) jimple.Sig) []string {
	var bufArr [1024]byte
	var endArr [32]int
	buf, ends := bufArr[:0], endArr[:0]
	for i := 0; i < n; i++ {
		buf = sig(i).AppendKey(buf)
		ends = append(ends, len(buf))
	}
	all := string(buf)
	keys := make([]string, n)
	start := 0
	for i, end := range ends {
		keys[i] = all[start:end]
		start = end
	}
	return keys
}

func sourcesContain(sources map[int][]string, stmt int, local string) bool {
	for _, l := range sources[stmt] {
		if l == local {
			return true
		}
	}
	return false
}

package dataflow

import (
	"reflect"
	"testing"

	"repro/internal/android"
	"repro/internal/callgraph"
	"repro/internal/cfg"
	"repro/internal/hierarchy"
	"repro/internal/jimple"
)

// summariesOf parses src, builds the call graph, and summarizes every
// body-bearing method.
func summariesOf(t *testing.T, src string) (*SummarySet, *callgraph.Graph, []*jimple.Method) {
	t.Helper()
	prog := jimple.MustParse(src)
	if err := prog.Validate(); err != nil {
		t.Fatalf("test program invalid: %v", err)
	}
	h := hierarchy.New(prog)
	man := &android.Manifest{Package: "t"}
	man.Normalize()
	cg := callgraph.Build(h, man)
	var methods []*jimple.Method
	for _, c := range prog.Classes() {
		for _, m := range c.Methods {
			if m.HasBody() {
				methods = append(methods, m)
			}
		}
	}
	set, err := ComputeSummaries(cg, methods, SummaryConfig{})
	if err != nil {
		t.Fatalf("ComputeSummaries: %v", err)
	}
	return set, cg, methods
}

// summaryOf looks the summary of the method with the given signature key
// up through the graph's id table.
func summaryOf(set *SummarySet, cg *callgraph.Graph, key string) *TaintSummary {
	id, ok := cg.ID(key)
	if !ok {
		return nil
	}
	return set.OfID(id)
}

func TestSummaryRetFromAndCallsOn(t *testing.T) {
	set, cg, _ := summariesOf(t, `class t.H extends java.lang.Object {
  method static configure(t.Client)t.Client {
    local cl t.Client
    cl = param 0 t.Client
    virtualinvoke cl t.Client.setTimeout(int)void 5000
    return cl
  }
}
class t.Client extends java.lang.Object {
  method setTimeout(int)void {
    return
  }
}`)
	sum := summaryOf(set, cg, "t.H.configure(t.Client)t.Client")
	if sum == nil {
		t.Fatal("no summary for configure")
	}
	if sum.Inputs != 2 {
		t.Fatalf("Inputs: %d", sum.Inputs)
	}
	// The return value is the parameter, passed through.
	if sum.RetFrom != 1<<1 {
		t.Errorf("RetFrom: %b", sum.RetFrom)
	}
	// setTimeout is invoked on the parameter, with its constant argument
	// folded in the helper's own context.
	if len(sum.CallsOn[1]) != 1 {
		t.Fatalf("CallsOn[1]: %+v", sum.CallsOn[1])
	}
	sc := sum.CallsOn[1][0]
	if sc.Callee.Name != "setTimeout" {
		t.Errorf("callee: %v", sc.Callee)
	}
	if len(sc.Args) != 1 || !sc.Args[0].Known || sc.Args[0].V != 5000 {
		t.Errorf("args: %+v", sc.Args)
	}
	if !sum.UsesToken(1) {
		t.Error("parameter should be marked used (invoked on)")
	}
	if sum.UsesToken(0) {
		t.Error("static method: receiver token unused")
	}
}

func TestSummaryFactoryCallsOnRet(t *testing.T) {
	set, cg, _ := summariesOf(t, `class t.F extends java.lang.Object {
  method static make()t.Client {
    local cl t.Client
    cl = new t.Client
    specialinvoke cl t.Client.<init>()void
    virtualinvoke cl t.Client.setTimeout(int)void 3000
    return cl
  }
  method static makeIndirect()t.Client {
    local cl t.Client
    cl = staticinvoke t.F.make()t.Client
    return cl
  }
}
class t.Client extends java.lang.Object {
  method <init>()void {
    return
  }
  method setTimeout(int)void {
    return
  }
}`)
	sum := summaryOf(set, cg, "t.F.make()t.Client")
	if sum == nil {
		t.Fatal("no summary for make")
	}
	if sum.RetFrom != 0 {
		t.Errorf("fresh allocation should not derive inputs: %b", sum.RetFrom)
	}
	names := func(calls []SummaryCall) []string {
		var out []string
		for _, c := range calls {
			out = append(out, c.Callee.Name)
		}
		return out
	}
	if got := names(sum.CallsOnRet); !reflect.DeepEqual(got, []string{"<init>", "setTimeout"}) {
		t.Errorf("CallsOnRet: %v", got)
	}
	// The chained factory inherits the producer's CallsOnRet.
	ind := summaryOf(set, cg, "t.F.makeIndirect()t.Client")
	if ind == nil {
		t.Fatal("no summary for makeIndirect")
	}
	if got := names(ind.CallsOnRet); !reflect.DeepEqual(got, []string{"<init>", "setTimeout"}) {
		t.Errorf("chained CallsOnRet: %v", got)
	}
}

func TestSummaryStateFromAndEscape(t *testing.T) {
	set, cg, _ := summariesOf(t, `class t.S extends java.lang.Object {
  field sink t.Obj
  method static stash(t.Holder,t.Obj)void {
    local h t.Holder
    local v t.Obj
    h = param 0 t.Holder
    v = param 1 t.Obj
    field(h,t.Holder,slot) = v
    return
  }
  method static leak(t.Obj)void {
    local v t.Obj
    v = param 0 t.Obj
    field(,t.S,sink) = v
    return
  }
}
class t.Holder extends java.lang.Object {
}
class t.Obj extends java.lang.Object {
}`)
	stash := summaryOf(set, cg, "t.S.stash(t.Holder,t.Obj)void")
	if stash == nil {
		t.Fatal("no summary for stash")
	}
	// Param 1 (token 2) is stored into param 0's (token 1's) state.
	if stash.StateFrom[1] != 1<<2 {
		t.Errorf("StateFrom[1]: %b", stash.StateFrom[1])
	}
	if stash.Escapes != 0 {
		t.Errorf("stash should not escape: %b", stash.Escapes)
	}
	leak := summaryOf(set, cg, "t.S.leak(t.Obj)void")
	if leak == nil {
		t.Fatal("no summary for leak")
	}
	if leak.Escapes != 1<<1 {
		t.Errorf("static-field store should escape param 0: %b", leak.Escapes)
	}
}

func TestSummaryUncheckedUseAndValidated(t *testing.T) {
	isCheck := func(sig jimple.Sig) bool { return sig.Name == "isSuccess" }
	src := `class t.U extends java.lang.Object {
  method static useRaw(t.Resp)void {
    local r t.Resp
    local b java.lang.String
    r = param 0 t.Resp
    b = virtualinvoke r t.Resp.getBody()java.lang.String
    return
  }
  method static useChecked(t.Resp)void {
    local r t.Resp
    local ok boolean
    local b java.lang.String
    r = param 0 t.Resp
    ok = virtualinvoke r t.Resp.isSuccess()boolean
    if ok == 0 goto L1
    b = virtualinvoke r t.Resp.getBody()java.lang.String
    L1:
    return
  }
}`
	prog := jimple.MustParse(src)
	if err := prog.Validate(); err != nil {
		t.Fatal(err)
	}
	h := hierarchy.New(prog)
	man := &android.Manifest{Package: "t"}
	man.Normalize()
	cg := callgraph.Build(h, man)
	var methods []*jimple.Method
	for _, c := range prog.Classes() {
		for _, m := range c.Methods {
			if m.HasBody() {
				methods = append(methods, m)
			}
		}
	}
	set, err := ComputeSummaries(cg, methods, SummaryConfig{IsValidityCheck: isCheck})
	if err != nil {
		t.Fatal(err)
	}
	raw := summaryOf(set, cg, "t.U.useRaw(t.Resp)void")
	if raw == nil || raw.UncheckedUse&(1<<1) == 0 {
		t.Errorf("useRaw should have an unchecked use of its parameter: %+v", raw)
	}
	checked := summaryOf(set, cg, "t.U.useChecked(t.Resp)void")
	if checked == nil {
		t.Fatal("no summary for useChecked")
	}
	if checked.UncheckedUse&(1<<1) != 0 {
		t.Error("useChecked reads only after the check")
	}
	if checked.ValidatedAllPaths&(1<<1) == 0 {
		t.Error("useChecked validates on every path")
	}
}

func TestSummaryRecursionConverges(t *testing.T) {
	set, cg, _ := summariesOf(t, `class t.R extends java.lang.Object {
  method static ping(t.Obj,int)t.Obj {
    local v t.Obj
    local n int
    local out t.Obj
    v = param 0 t.Obj
    n = param 1 int
    if n == 0 goto L1
    out = staticinvoke t.R.pong(t.Obj,int)t.Obj v n
    return out
    L1:
    return v
  }
  method static pong(t.Obj,int)t.Obj {
    local v t.Obj
    local n int
    local out t.Obj
    v = param 0 t.Obj
    n = param 1 int
    out = staticinvoke t.R.ping(t.Obj,int)t.Obj v n
    return out
  }
}
class t.Obj extends java.lang.Object {
}`)
	stats := set.Stats()
	if stats.MaxSCC != 2 {
		t.Errorf("ping/pong should form one SCC of 2: %+v", stats)
	}
	for _, key := range []string{"t.R.ping(t.Obj,int)t.Obj", "t.R.pong(t.Obj,int)t.Obj"} {
		sum := summaryOf(set, cg, key)
		if sum == nil {
			t.Fatalf("no summary for %s", key)
		}
		// The object parameter flows to the return through the cycle.
		if sum.RetFrom&(1<<1) == 0 {
			t.Errorf("%s: RetFrom should include param 0 through recursion: %b", key, sum.RetFrom)
		}
	}
	if stats.FixpointIterations == 0 {
		t.Error("a recursive SCC should need at least one extra fixpoint pass")
	}
}

func TestSummariesDeterministic(t *testing.T) {
	src := `class t.D extends java.lang.Object {
  method static a(t.Obj)t.Obj {
    local v t.Obj
    local out t.Obj
    v = param 0 t.Obj
    out = staticinvoke t.D.b(t.Obj)t.Obj v
    return out
  }
  method static b(t.Obj)t.Obj {
    local v t.Obj
    v = param 0 t.Obj
    virtualinvoke v t.Obj.touch()void
    return v
  }
}
class t.Obj extends java.lang.Object {
  method touch()void {
    return
  }
}`
	set1, cg1, _ := summariesOf(t, src)
	set2, cg2, _ := summariesOf(t, src)
	for _, key := range []string{"t.D.a(t.Obj)t.Obj", "t.D.b(t.Obj)t.Obj"} {
		if !reflect.DeepEqual(summaryOf(set1, cg1, key), summaryOf(set2, cg2, key)) {
			t.Errorf("%s: summaries differ across runs", key)
		}
	}
	a := summaryOf(set1, cg1, "t.D.a(t.Obj)t.Obj")
	// a's parameter is passed to b, which touches it: CallsOn and Uses
	// propagate through the summary.
	if a.RetFrom&(1<<1) == 0 {
		t.Errorf("a passes its param through b to the return: %b", a.RetFrom)
	}
	if len(a.CallsOn[1]) != 1 || a.CallsOn[1][0].Callee.Name != "touch" {
		t.Errorf("a.CallsOn[1]: %+v", a.CallsOn[1])
	}
	if !a.UsesToken(1) {
		t.Error("a's param is used transitively")
	}
}

func TestSummaryCancel(t *testing.T) {
	prog := jimple.MustParse(`class t.C extends java.lang.Object {
  method m()void {
    return
  }
}`)
	h := hierarchy.New(prog)
	man := &android.Manifest{Package: "t"}
	man.Normalize()
	cg := callgraph.Build(h, man)
	var methods []*jimple.Method
	for _, c := range prog.Classes() {
		for _, m := range c.Methods {
			if m.HasBody() {
				methods = append(methods, m)
			}
		}
	}
	wantErr := context_DeadlineExceeded{}
	_, err := ComputeSummaries(cg, methods, SummaryConfig{Cancel: func() error { return wantErr }})
	if err == nil {
		t.Fatal("Cancel should abort the computation")
	}
}

// context_DeadlineExceeded avoids importing context for one sentinel.
type context_DeadlineExceeded struct{}

func (context_DeadlineExceeded) Error() string { return "deadline" }

func TestInfeasibleEdges(t *testing.T) {
	m := methodOf(t, `class t.T extends java.lang.Object {
  method m()void {
    local flag int
    local x int
    flag = 1
    if flag == 1 goto L1
    x = 0
    goto L2
    L1:
    x = 1
    L2:
    return x
  }
}`)
	g := cfg.New(nil, m)
	cp := NewConstProp(NewReachDefs(nil, g))
	dead := InfeasibleEdges(g, cp)
	// The branch is always taken: the fall-through edge 1→2 is dead.
	if len(dead) != 1 || dead[0] != [2]int{1, 2} {
		t.Fatalf("InfeasibleEdges: %v", dead)
	}
	pruned := g.WithoutEdges(dead)
	reach := pruned.Reachable()
	if reach[2] || reach[3] {
		t.Error("the never-taken arm should be unreachable after pruning")
	}
	if !reach[4] || !reach[5] {
		t.Error("the taken arm must stay reachable")
	}
}

func TestBranchTakenAndValueAt(t *testing.T) {
	m := methodOf(t, `class t.T extends java.lang.Object {
  method m(int)void {
    local u int
    local k int
    u = param 0 int
    k = 3
    if k >= 2 goto L1
    return
    L1:
    if u == 0 goto L2
    return
    L2:
    return
  }
}`)
	cp := NewConstProp(NewReachDefs(nil, cfg.New(nil, m)))
	if taken, known := cp.BranchTaken(2); !known || !taken {
		t.Errorf("k >= 2 with k=3: taken=%v known=%v", taken, known)
	}
	if _, known := cp.BranchTaken(4); known {
		t.Error("u == 0 depends on the parameter: must be unknown")
	}
	if _, known := cp.BranchTaken(0); known {
		t.Error("non-if statement must report unknown")
	}
	if v, ok := cp.ValueAt(2, jimple.IntConst{V: 7}); !ok || v != 7 {
		t.Errorf("ValueAt const: %d %v", v, ok)
	}
}

// resolverFor builds the per-site summary resolver the checkers use,
// from a computed set and the call graph.
func resolverFor(set *SummarySet, cg *callgraph.Graph, m *jimple.Method) SummaryResolver {
	edges := cg.OutEdges(m.Sig.Key())
	return func(site int) []*TaintSummary {
		var out []*TaintSummary
		for _, e := range edges {
			if e.Site != site || e.Kind != callgraph.EdgeCall {
				continue
			}
			if s := summaryOf(set, cg, e.Callee.Key()); s != nil {
				out = append(out, s)
			}
		}
		return out
	}
}

func TestAllocSitesOfFieldMediated(t *testing.T) {
	m := methodOf(t, `class t.T extends java.lang.Object {
  method m()void {
    local h t.Holder
    local a t.Client
    local b t.Client
    local c t.Client
    h = new t.Holder
    specialinvoke h t.Holder.<init>()void
    a = new t.Client
    specialinvoke a t.Client.<init>()void
    field(h,t.Holder,cl) = a
    b = field(h,t.Holder,cl)
    c = b
    virtualinvoke c t.Client.get()void
    return
  }
}`)
	rd := NewReachDefs(nil, cfg.New(nil, m))
	// The chain c ← b ← field load stops at the field load: a field read
	// is an originating definition (the engine does not track heap flow
	// backward through stores).
	allocs := AllocSitesOf(rd, 7, "c")
	if len(allocs) != 1 || allocs[0] != 5 {
		t.Errorf("AllocSitesOf through field load: %v, want [5]", allocs)
	}
	// The direct chain from the alloc still resolves to the new site.
	if allocs := AllocSitesOf(rd, 4, "a"); len(allocs) != 1 || allocs[0] != 2 {
		t.Errorf("AllocSitesOf direct: %v, want [2]", allocs)
	}
}

func TestCallsOnObjectFieldMediatedForward(t *testing.T) {
	m := methodOf(t, `class t.T extends java.lang.Object {
  method m()void {
    local h t.Holder
    local a t.Client
    local b t.Client
    local r t.Response
    h = new t.Holder
    specialinvoke h t.Holder.<init>()void
    a = new t.Client
    specialinvoke a t.Client.<init>()void
    field(h,t.Holder,cl) = a
    b = field(h,t.Holder,cl)
    virtualinvoke b t.Client.setTimeout(int)void 1500
    r = virtualinvoke a t.Client.get()t.Response
    return
  }
}`)
	g := cfg.New(nil, m)
	rd := NewReachDefs(nil, g)
	calls := CallsOnObject(g, rd, 7, "a")
	seen := map[string]int{}
	for _, oc := range calls {
		seen[oc.Callee.Name]++
	}
	// The store taints the holder; the load from the tainted holder
	// aliases the object, so the call through b is attributed to it.
	if seen["setTimeout"] != 1 {
		t.Errorf("field-mediated alias call missed: %+v", calls)
	}
	if seen["get"] != 1 {
		t.Errorf("request call missed: %+v", calls)
	}
}

func TestCallsOnObjectInterHelperAndFactory(t *testing.T) {
	set, cg, methods := summariesOf(t, `class t.T extends java.lang.Object {
  method static caller()void {
    local c t.Client
    local d t.Client
    local r t.Response
    c = new t.Client
    specialinvoke c t.Client.<init>()void
    staticinvoke t.T.configure(t.Client)void c
    d = staticinvoke t.T.make()t.Client
    r = virtualinvoke c t.Client.get()t.Response
    return
  }
  method static configure(t.Client)void {
    local cl t.Client
    cl = param 0 t.Client
    virtualinvoke cl t.Client.setTimeout(int)void 5000
    return
  }
  method static make()t.Client {
    local cl t.Client
    cl = new t.Client
    specialinvoke cl t.Client.<init>()void
    virtualinvoke cl t.Client.setMaxRetries(int)void 2
    return cl
  }
}
class t.Client extends java.lang.Object {
  method <init>()void {
    return
  }
}`)
	var caller *jimple.Method
	for _, m := range methods {
		if m.Sig.Name == "caller" {
			caller = m
		}
	}
	if caller == nil {
		t.Fatal("caller not found")
	}
	g := cfg.New(nil, caller)
	rd := NewReachDefs(nil, g)
	resolve := resolverFor(set, cg, caller)

	// Object c: configured through the helper. The summary-mapped call
	// carries the helper-context constant argument.
	calls := CallsOnObjectInter(g, rd, 4, "c", resolve)
	var helperCfg *ObjectCall
	for i := range calls {
		if calls[i].Callee.Name == "setTimeout" {
			helperCfg = &calls[i]
		}
	}
	if helperCfg == nil {
		t.Fatalf("helper-applied config not surfaced: %+v", calls)
	}
	if len(helperCfg.Args) != 1 || !helperCfg.Args[0].Known || helperCfg.Args[0].V != 5000 {
		t.Errorf("helper call args: %+v", helperCfg.Args)
	}

	// Object d: produced by the factory. CallsOnRet surfaces the
	// factory-side config at the allocation statement.
	calls = CallsOnObjectInter(g, rd, 5, "d", resolve)
	var factoryCfg *ObjectCall
	for i := range calls {
		if calls[i].Callee.Name == "setMaxRetries" {
			factoryCfg = &calls[i]
		}
	}
	if factoryCfg == nil {
		t.Fatalf("factory-applied config not surfaced: %+v", calls)
	}
	if factoryCfg.Stmt != 3 {
		t.Errorf("factory config should anchor at the call site: %+v", factoryCfg)
	}
	if len(factoryCfg.Args) != 1 || !factoryCfg.Args[0].Known || factoryCfg.Args[0].V != 2 {
		t.Errorf("factory call args: %+v", factoryCfg.Args)
	}

	// A nil resolver degrades to the intraprocedural walk: the helper-
	// and factory-applied config disappears.
	intra := CallsOnObjectInter(g, rd, 4, "c", nil)
	for _, oc := range intra {
		if oc.Callee.Name == "setTimeout" {
			t.Errorf("intraprocedural walk must not see the helper config: %+v", intra)
		}
	}
}

package apimodel

import (
	"testing"

	"repro/internal/jimple"
	"repro/internal/testutil"
)

// lookupProbes returns every annotated signature of r plus near misses
// of each (a longer name, a shorter return type, no parameters, one more
// parameter): the class gate passes, so the key lookup must miss.
func lookupProbes(r *Registry) []jimple.Sig {
	var probes []jimple.Sig
	add := func(s jimple.Sig) {
		name, ret, none, more := s, s, s, s
		name.Name += "x"
		ret.Ret = s.Ret[:len(s.Ret)-1]
		none.Params = nil
		more.Params = append(append([]string(nil), s.Params...), "int")
		probes = append(probes, s, name, ret, none, more)
	}
	for _, l := range r.Libraries() {
		for _, x := range l.Targets {
			add(x.Sig)
		}
		for _, x := range l.Configs {
			add(x.Sig)
		}
		for _, x := range l.RespChecks {
			add(x.Sig)
		}
		for _, x := range l.Endpoints {
			add(x.Sig)
		}
	}
	return probes
}

// TestLookupsMatchKeyedMaps: the allocation-free lookups answer exactly
// what indexing the annotation maps by Sig.Key() answers, and a lookup
// allocates nothing.
func TestLookupsMatchKeyedMaps(t *testing.T) {
	r := NewRegistry()
	probes := lookupProbes(r)
	for _, s := range probes {
		k := s.Key()
		tgt, wantT := r.targetBySig[k]
		cfg, wantC := r.configBySig[k]
		ep, wantE := r.endpointBySig[k]
		_, wantR := r.checkBySig[k]
		_, gotT, okT := r.TargetOf(s)
		_, gotC, okC := r.ConfigOf(s)
		_, gotE, okE := r.EndpointOf(s)
		if okT != wantT || gotT != tgt.t || okC != wantC || gotC != cfg.c ||
			okE != wantE || gotE != ep.e || r.IsRespCheck(s) != wantR {
			t.Errorf("%s: lookups disagree with the keyed maps", k)
		}
	}
	if testutil.RaceEnabled {
		t.Skip("the race runtime allocates on its own account")
	}
	avg := testing.AllocsPerRun(20, func() {
		for _, s := range probes {
			r.TargetOf(s)
			r.ConfigOf(s)
			r.EndpointOf(s)
			r.IsRespCheck(s)
		}
	})
	if avg != 0 {
		t.Errorf("%d probes × 4 lookups allocate %.1f times per run, want 0", len(probes), avg)
	}
}

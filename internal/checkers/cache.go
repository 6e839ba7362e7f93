package checkers

import (
	"crypto/sha256"
	"fmt"

	"repro/internal/apimodel"
	"repro/internal/cachestore"
)

// This file wires the persistent scan cache (internal/cachestore) into
// the pipeline: the cache-probe stage that short-circuits unchanged apps
// and the post-merge write stage. DESIGN.md §7 documents the key anatomy
// and fault semantics; the differential harness in internal/experiments
// proves cold and warm reports byte-identical.
//
// Key anatomy. A result entry is keyed by
//
//	H(app container digest, registry fingerprint, engine version,
//	  options fingerprint)
//
// so any change to the app bytes, the API annotations, the engine, or a
// report-affecting option forces a miss. Workers and Timeout are
// deliberately excluded: the analysis never reads Workers (a batch
// caller's app concurrency), and degraded (deadline-hit) scans are never written, so neither can
// change what a cached entry would contain. A changed app misses and
// rescans cold: its demand closure summarizes only a handful of methods,
// which costs less than addressing per-class entries would.
//
// Fault semantics: cache trouble of any kind — unopenable directory,
// corrupt or truncated entries, decode failures, even a panic inside the
// cache code itself — degrades to a cold scan and a diagnostics counter,
// never to a failed or Incomplete scan. On the write side, a scan with
// any ScanError (panic, deadline, cancellation) commits nothing:
// incomplete results must never poison the cache.

// EngineVersion names the analysis engine revision for cache keying. Bump
// it whenever checker behavior changes in a way the other key components
// do not capture; old entries then read as misses and age out via LRU.
const EngineVersion = "nchecker-engine/7"

// CacheMode selects how a scan uses the persistent cache.
type CacheMode uint8

const (
	// CacheOff (the zero value) disables the persistent cache.
	CacheOff CacheMode = iota
	// CacheRO probes and restores but never writes — safe for scans that
	// must not mutate a shared cache directory.
	CacheRO
	// CacheRW probes, restores, and writes back clean scan results.
	CacheRW
)

// String renders the mode as its flag spelling (off, ro, rw).
func (m CacheMode) String() string {
	switch m {
	case CacheRO:
		return "ro"
	case CacheRW:
		return "rw"
	}
	return "off"
}

// ParseCacheMode parses the -cache-mode flag values off, ro, and rw.
func ParseCacheMode(s string) (CacheMode, error) {
	switch s {
	case "off":
		return CacheOff, nil
	case "ro":
		return CacheRO, nil
	case "rw":
		return CacheRW, nil
	}
	return CacheOff, fmt.Errorf("invalid cache mode %q (want off, ro, or rw)", s)
}

// cacheEnabled reports whether the scan should touch the persistent
// cache at all.
func (o Options) cacheEnabled() bool {
	return o.CacheDir != "" && o.CacheMode != CacheOff
}

// cacheFingerprint renders the report-affecting options into the cache
// key. Workers and Timeout are excluded by design (see the file comment).
func (o Options) cacheFingerprint() []byte {
	// Validate is fingerprinted because validated entries carry verdicts
	// in their reports: a validate=false scan must never be answered from
	// a validated entry, nor the reverse.
	// Checkers is fingerprinted as the normalized (effective) mask: two
	// spellings of the same selection share entries, while an ablated scan
	// never answers a full one. Normalization cannot collide with an
	// explicit selection — effective() maps 0 to the all-bits mask, which
	// no proper subset equals.
	// The test oracle's entries carry whole-program diagnostics counts, so
	// they get their own keys; production fingerprints never mention it.
	fp := fmt.Sprintf("taintcfg=%t retryslice=%t declared=%t icc=%t intra=%t guard=%t validate=%t checkers=%d",
		o.DisableTaintConfigDiscovery, o.DisableRetrySlicing, o.DeclaredDispatchOnly,
		o.EnableICC, o.Intraprocedural, o.GuardSensitiveConnCheck, o.Validate,
		uint(o.Checkers.effective()))
	if o.oracle {
		fp += " oracle"
	}
	return []byte(fp)
}

// resultCacheKey addresses the whole-app result entry.
func resultCacheKey(digest [sha256.Size]byte, reg *apimodel.Registry, opts Options) cachestore.Key {
	return cachestore.NewKey(digest[:], reg.Fingerprint(), []byte(EngineVersion), opts.cacheFingerprint())
}

// cacheGuard isolates the cache stages: a panic inside cache code is
// corruption by definition — it is counted and the scan continues cold,
// without a ScanError and without marking the Result Incomplete (cache
// trouble must never degrade a scan that can complete without it).
func (a *analysis) cacheGuard(fn func()) {
	defer func() {
		if r := recover(); r != nil {
			a.diag.Cache.StoreCorrupt++
		}
	}()
	fn()
}

// openStore opens (or reuses) the process-shared store for the scan's
// cache directory. An unopenable directory silently disables the cache
// for this scan: every counter stays zero, which -timings surfaces.
func (a *analysis) openStore() {
	if !a.opts.cacheEnabled() {
		return
	}
	st, err := cachestore.Shared(a.opts.CacheDir, cachestore.Options{MaxBytes: a.opts.CacheMaxBytes})
	if err != nil {
		return
	}
	a.store = st
}

// probeCache looks the whole app up. On a full hit it returns the
// restored Result — the pipeline then skips straight to report emission.
func (a *analysis) probeCache() *Result {
	a.openStore()
	if a.store == nil {
		return nil
	}
	digest, err := a.app.Digest()
	if err != nil {
		return nil
	}
	a.resultKey = resultCacheKey(digest, a.reg, a.opts)
	a.haveResultKey = true
	a.diag.Cache.StoreProbes++
	payload, status := a.store.Get(a.resultKey)
	switch status {
	case cachestore.StatusMiss:
		a.diag.Cache.StoreMisses++
		return nil
	case cachestore.StatusCorrupt:
		a.diag.Cache.StoreCorrupt++
		return nil
	}
	e, err := cachestore.DecodeResultEntry(payload)
	if err != nil {
		a.diag.Cache.StoreCorrupt++
		a.store.Remove(a.resultKey)
		return nil
	}
	stats, ok := statsFromCounters(e.Counters, e.Libs)
	if !ok {
		// The Stats shape changed without an EngineVersion bump; treat the
		// stale entry as corrupt and rescan.
		a.diag.Cache.StoreCorrupt++
		a.store.Remove(a.resultKey)
		return nil
	}
	a.diag.Cache.StoreHits++
	// A full hit skips discovery (a.methods and a.sites stay empty), so
	// the per-app counts come from the entry.
	a.diag.AppMethods, a.diag.Sites = e.AppMethods, e.Sites
	return &Result{Reports: e.Reports, Stats: stats}
}

// writeCache commits the clean scan's whole-app result entry. Callers
// gate on CacheRW and on len(a.errs) == 0 — an Incomplete scan commits
// nothing.
func (a *analysis) writeCache(res *Result) {
	if a.store == nil || !a.opts.cacheEnabled() || !a.haveResultKey {
		return
	}
	e := &cachestore.ResultEntry{
		AppMethods: len(a.methods),
		Sites:      len(a.sites),
		Reports:    res.Reports,
		Counters:   statsCounters(&res.Stats),
		Libs:       libsToStrings(res.Stats.LibsUsed),
	}
	evicted, err := a.store.Put(a.resultKey, cachestore.EncodeResultEntry(e))
	if err != nil {
		a.diag.Cache.StorePutErrors++
		return
	}
	a.diag.Cache.StorePuts++
	a.diag.Cache.StoreEvicted += evicted
}

// statsCounters flattens Stats to the cached counter vector. The field
// order is the codec contract: statsFromCounters reads it back in the
// same order, and a length mismatch (a Stats shape change) invalidates
// old entries.
func statsCounters(s *Stats) []int64 {
	return []int64{
		int64(s.Requests), int64(s.UserRequests), int64(s.RetryEvalRequests),
		int64(s.MissConnCheck), int64(s.MissTimeout), int64(s.MissRetryConfig),
		int64(s.UserRequestsNoNotif), int64(s.ExplicitCallbackReqs), int64(s.ExplicitCallbackNotified),
		int64(s.ImplicitCallbackReqs), int64(s.ImplicitCallbackNotified),
		int64(s.ErrorCallbacks), int64(s.ErrorTypeChecked),
		int64(s.NoRetryTimeSensitive), int64(s.OverRetryService), int64(s.OverRetryServiceDefault),
		int64(s.OverRetryPost), int64(s.OverRetryPostDefault),
		int64(s.RespRequests), int64(s.RespMissCheck),
		int64(s.RetryLoops), int64(s.AggressiveRetryLoops),
		int64(s.OfflineHandlers), int64(s.OfflineNoRecovery),
		int64(s.GuardedSites), int64(s.StaleConnChecks),
		int64(s.EndpointSites), int64(s.ResolvedEndpoints),
		int64(s.CleartextEndpoints), int64(s.HardcodedIPEndpoints),
		int64(s.RetryStorms),
	}
}

// statsFromCounters is the inverse of statsCounters; ok is false on a
// counter-vector length mismatch.
func statsFromCounters(cs []int64, libs []string) (Stats, bool) {
	var s Stats
	if len(cs) != len(statsCounters(&s)) {
		return s, false
	}
	s.Requests, s.UserRequests, s.RetryEvalRequests = int(cs[0]), int(cs[1]), int(cs[2])
	s.MissConnCheck, s.MissTimeout, s.MissRetryConfig = int(cs[3]), int(cs[4]), int(cs[5])
	s.UserRequestsNoNotif, s.ExplicitCallbackReqs, s.ExplicitCallbackNotified = int(cs[6]), int(cs[7]), int(cs[8])
	s.ImplicitCallbackReqs, s.ImplicitCallbackNotified = int(cs[9]), int(cs[10])
	s.ErrorCallbacks, s.ErrorTypeChecked = int(cs[11]), int(cs[12])
	s.NoRetryTimeSensitive, s.OverRetryService, s.OverRetryServiceDefault = int(cs[13]), int(cs[14]), int(cs[15])
	s.OverRetryPost, s.OverRetryPostDefault = int(cs[16]), int(cs[17])
	s.RespRequests, s.RespMissCheck = int(cs[18]), int(cs[19])
	s.RetryLoops, s.AggressiveRetryLoops = int(cs[20]), int(cs[21])
	s.OfflineHandlers, s.OfflineNoRecovery = int(cs[22]), int(cs[23])
	s.GuardedSites, s.StaleConnChecks = int(cs[24]), int(cs[25])
	s.EndpointSites, s.ResolvedEndpoints = int(cs[26]), int(cs[27])
	s.CleartextEndpoints, s.HardcodedIPEndpoints = int(cs[28]), int(cs[29])
	s.RetryStorms = int(cs[30])
	for _, l := range libs {
		s.LibsUsed = append(s.LibsUsed, apimodel.LibKey(l))
	}
	return s, true
}

func libsToStrings(libs []apimodel.LibKey) []string {
	if len(libs) == 0 {
		return nil
	}
	out := make([]string, len(libs))
	for i, l := range libs {
		out[i] = string(l)
	}
	return out
}

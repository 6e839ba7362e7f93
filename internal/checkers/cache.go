package checkers

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"sync"

	"repro/internal/apimodel"
	"repro/internal/cachestore"
	"repro/internal/callgraph"
	"repro/internal/dataflow"
	"repro/internal/jimple"
)

// This file wires the persistent scan cache (internal/cachestore) into
// the pipeline: the cache-probe stage that short-circuits unchanged apps,
// the summary-seeding stage that restores per-class taint summaries on
// partial hits, and the post-merge write stage. DESIGN.md §7 documents
// the key anatomy and fault semantics; the differential harness in
// internal/experiments proves cold and warm reports byte-identical.
//
// Key anatomy. A result entry is keyed by
//
//	H(app container digest, registry fingerprint, engine version,
//	  options fingerprint)
//
// so any change to the app bytes, the API annotations, the engine, or a
// report-affecting option forces a miss. Workers and Timeout are
// deliberately excluded: reports are deterministic regardless of Workers,
// and degraded (deadline-hit) scans are never written, so neither can
// change what a cached entry would contain.
//
// A summary entry holds one app class's converged taint summaries and is
// keyed by
//
//	H(class name, closure digest, registry fingerprint, engine version,
//	  options fingerprint)
//
// where the closure digest hashes the manifest plus the transitive
// EdgeCall closure of the class's methods: every app class reached
// contributes its name and the hash of its printed body, every reached
// framework/library method contributes its signature key. Under CHA
// dispatch any body-bearing override that could be invoked is an edge
// target and therefore inside the closure, so two scans agreeing on a
// class's closure digest compute identical summaries for it — changed
// apps reuse summaries for the classes whose closures didn't change.
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
	return cachestore.NewKey(cachestore.KindResult,
		digest[:], reg.Fingerprint(), []byte(EngineVersion), opts.cacheFingerprint())
}

// summaryCacheKey addresses one app class's summary entry.
func summaryCacheKey(class string, closure [sha256.Size]byte, reg *apimodel.Registry, opts Options) cachestore.Key {
	return cachestore.NewKey(cachestore.KindSummary,
		[]byte(class), closure[:], reg.Fingerprint(), []byte(EngineVersion), opts.cacheFingerprint())
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

// ensureClassIndex builds the per-class method index the summary cache
// works in terms of: which sorted classes have body-bearing methods,
// which class owns which method key, and the manifest hash. Derived
// deterministically from the frozen a.methods list.
func (a *analysis) ensureClassIndex() {
	if a.classOfMethod != nil {
		return
	}
	a.classOfMethod = make(map[string]string, len(a.methods))
	a.methodsOfClass = make(map[string][]string)
	for _, m := range a.methods {
		k := a.methodKey(m)
		a.classOfMethod[k] = m.Sig.Class
		// a.methods is sorted by key, so each class's list is too.
		a.methodsOfClass[m.Sig.Class] = append(a.methodsOfClass[m.Sig.Class], k)
	}
	a.cacheClasses = make([]string, 0, len(a.methodsOfClass))
	for cls := range a.methodsOfClass {
		a.cacheClasses = append(a.cacheClasses, cls)
	}
	sort.Strings(a.cacheClasses)
	a.manifestHash = sha256.Sum256([]byte(a.app.Manifest.Encode()))
	a.classHashes = make(map[string][sha256.Size]byte)
	a.closureMemo = make(map[string][sha256.Size]byte)
}

// classPrintBufs pools the buffered writers classHash streams printed
// classes through; the buffer is reused across classes and scans instead
// of materializing a fresh multi-kilobyte string per class per digest.
var classPrintBufs = sync.Pool{
	New: func() interface{} { return bufio.NewWriterSize(nil, 16<<10) },
}

// classHash hashes one app class's printed body (memoized per scan). The
// rendering streams straight into the hasher, producing exactly the bytes
// of jimple.PrintClass without ever holding them.
func (a *analysis) classHash(cls string) [sha256.Size]byte {
	if h, ok := a.classHashes[cls]; ok {
		return h
	}
	var h [sha256.Size]byte
	if c := a.app.Program.Class(cls); c != nil {
		a.diag.Cache.ClassDigests++
		hasher := sha256.New()
		bw := classPrintBufs.Get().(*bufio.Writer)
		bw.Reset(hasher)
		jimple.FprintClass(bw, c)
		bw.Flush()
		bw.Reset(nil) // drop the hasher reference before pooling
		classPrintBufs.Put(bw)
		hasher.Sum(h[:0])
	}
	a.classHashes[cls] = h
	return h
}

// closureDigest hashes everything a class's summaries can depend on: the
// manifest, plus the transitive EdgeCall closure of the class's methods —
// reached app classes by content, reached external (framework/library)
// methods by signature key. Memoized per scan.
func (a *analysis) closureDigest(cls string) [sha256.Size]byte {
	if d, ok := a.closureMemo[cls]; ok {
		return d
	}
	visited := make(map[string]bool)
	reachedClasses := map[string]bool{cls: true}
	extKeys := make(map[string]bool)
	stack := append([]string(nil), a.methodsOfClass[cls]...)
	for _, k := range stack {
		visited[k] = true
	}
	for len(stack) > 0 {
		k := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, e := range a.cg.OutEdges(k) {
			if e.Kind != callgraph.EdgeCall {
				continue
			}
			ck := a.cg.Key(e.CalleeID)
			if owner, inApp := a.classOfMethod[ck]; inApp {
				reachedClasses[owner] = true
				if !visited[ck] {
					visited[ck] = true
					stack = append(stack, ck)
				}
			} else {
				extKeys[ck] = true
			}
		}
	}
	h := sha256.New()
	h.Write(a.manifestHash[:])
	// Hand-rolled "app <name> <hex>\n" / "ext <key>\n" lines, byte-identical
	// to the fmt.Fprintf rendering this replaces but reusing one buffer.
	line := make([]byte, 0, 128)
	var hexed [2 * sha256.Size]byte
	for _, c := range sortedKeys(reachedClasses) {
		ch := a.classHash(c)
		hex.Encode(hexed[:], ch[:])
		line = append(line[:0], "app "...)
		line = append(line, c...)
		line = append(line, ' ')
		line = append(line, hexed[:]...)
		line = append(line, '\n')
		h.Write(line)
	}
	for _, k := range sortedKeys(extKeys) {
		line = append(line[:0], "ext "...)
		line = append(line, k...)
		line = append(line, '\n')
		h.Write(line)
	}
	var d [sha256.Size]byte
	h.Sum(d[:0])
	a.closureMemo[cls] = d
	return d
}

func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// seedSummaries probes the per-class summary entries and collects the
// hits into a.seeds, which the summaries stage feeds to
// dataflow.ComputeSummaries — the partial-hit path: a changed app reuses
// the converged summaries of every class whose closure didn't change.
func (a *analysis) seedSummaries() {
	// The cacheEnabled re-check is belt and braces: a.store is only ever
	// set under it, and digest work (closureDigest → classHash re-prints
	// every reachable class) must never run with the cache off —
	// TestNoDigestWorkWithCacheOff pins the ClassDigests counter at zero.
	if a.store == nil || !a.opts.cacheEnabled() || a.opts.Intraprocedural {
		return
	}
	a.ensureClassIndex()
	a.seeds = make(map[string]*dataflow.TaintSummary)
	a.seededClasses = make(map[string]bool)
	for _, cls := range a.cacheClasses {
		key := summaryCacheKey(cls, a.closureDigest(cls), a.reg, a.opts)
		a.diag.Cache.StoreProbes++
		payload, status := a.store.Get(key)
		switch status {
		case cachestore.StatusMiss:
			a.diag.Cache.StoreMisses++
			continue
		case cachestore.StatusCorrupt:
			a.diag.Cache.StoreCorrupt++
			continue
		}
		e, err := cachestore.DecodeSummaryEntry(payload)
		if err != nil || !a.summaryEntryCurrent(cls, e) {
			a.diag.Cache.StoreCorrupt++
			a.store.Remove(key)
			continue
		}
		a.diag.Cache.StoreHits++
		for i := range e.Methods {
			a.seeds[e.Methods[i].Key] = e.Methods[i].Summary
		}
		a.seededClasses[cls] = true
		a.diag.Cache.SummariesSeeded += len(e.Methods)
	}
}

// summaryEntryCurrent checks a decoded summary entry against the current
// class: same class name and every method key still owned by it. A
// mismatch under a matching content-addressed key cannot happen without
// corruption (or a hash collision), so it reads as corrupt.
func (a *analysis) summaryEntryCurrent(cls string, e *cachestore.SummaryEntry) bool {
	if e.Class != cls {
		return false
	}
	for i := range e.Methods {
		if e.Methods[i].Summary == nil || a.classOfMethod[e.Methods[i].Key] != cls {
			return false
		}
	}
	return true
}

// writeCache commits the clean scan: the whole-app result entry plus one
// summary entry per class that wasn't already seeded from the cache.
// Callers gate on CacheRW and on len(a.errs) == 0 — an Incomplete scan
// commits nothing.
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
	a.putEntry(a.resultKey, cachestore.EncodeResultEntry(e))

	if a.opts.Intraprocedural {
		return
	}
	set := a.ctx.Summaries()
	if set == nil {
		return
	}
	a.ensureClassIndex()
	for _, cls := range a.cacheClasses {
		if a.seededClasses[cls] {
			continue // identical content is already committed
		}
		entry := cachestore.SummaryEntry{Class: cls}
		for _, mk := range a.methodsOfClass[cls] {
			if sum := set.Of(mk); sum != nil {
				entry.Methods = append(entry.Methods, cachestore.MethodSummary{Key: mk, Summary: sum})
			}
		}
		if len(entry.Methods) == 0 {
			continue
		}
		key := summaryCacheKey(cls, a.closureDigest(cls), a.reg, a.opts)
		a.putEntry(key, cachestore.EncodeSummaryEntry(&entry))
	}
}

func (a *analysis) putEntry(key cachestore.Key, payload []byte) {
	evicted, err := a.store.Put(key, payload)
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

package cachestore

import (
	"bytes"
	"crypto/sha256"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"
)

func mustOpen(t *testing.T, dir string, opts Options) *Store {
	t.Helper()
	s, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("Open(%q): %v", dir, err)
	}
	return s
}

func TestPutGetRoundTrip(t *testing.T) {
	s := mustOpen(t, t.TempDir(), Options{})
	key := NewKey([]byte("app"), []byte("reg"), []byte("v1"))
	payload := []byte("hello cached world")

	if _, status := s.Get(key); status != StatusMiss {
		t.Fatalf("Get on empty store = %v, want miss", status)
	}
	if _, err := s.Put(key, payload); err != nil {
		t.Fatalf("Put: %v", err)
	}
	got, status := s.Get(key)
	if status != StatusHit {
		t.Fatalf("Get after Put = %v, want hit", status)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("Get payload = %q, want %q", got, payload)
	}
	if n := s.Len(); n != 1 {
		t.Fatalf("Len = %d, want 1", n)
	}
	s.Remove(key)
	if _, status := s.Get(key); status != StatusMiss {
		t.Fatalf("Get after Remove = %v, want miss", status)
	}
}

// TestKeyInvalidation is the invalidation contract: flipping any single
// component of the cache key — the app digest, the registry fingerprint,
// the engine version, or the options fingerprint — must produce a
// distinct key, so a Put under the original key can never answer a probe
// for the changed configuration.
func TestKeyInvalidation(t *testing.T) {
	base := [4][]byte{
		[]byte("dex-digest-AAAA"),
		[]byte("registry-fingerprint"),
		[]byte("nchecker-engine/4"),
		[]byte("icc=false intra=false"),
	}
	cases := []struct {
		name string
		flip int
		with []byte
	}{
		{"app digest changed", 0, []byte("dex-digest-BBBB")},
		{"registry fingerprint changed", 1, []byte("registry-fingerprint'")},
		{"engine version bumped", 2, []byte("nchecker-engine/5")},
		{"options changed", 3, []byte("icc=true intra=false")},
	}

	s := mustOpen(t, t.TempDir(), Options{})
	baseKey := NewKey(base[0], base[1], base[2], base[3])
	if _, err := s.Put(baseKey, []byte("cached result")); err != nil {
		t.Fatalf("Put: %v", err)
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			parts := base
			parts[tc.flip] = tc.with
			k := NewKey(parts[0], parts[1], parts[2], parts[3])
			if k == baseKey {
				t.Fatalf("flipped key equals base key")
			}
			if _, status := s.Get(k); status != StatusMiss {
				t.Fatalf("Get with flipped component = %v, want miss", status)
			}
		})
	}
}

// TestKeyPartBoundaries: the length-prefixed part hashing must keep
// ("ab","c") distinct from ("a","bc") — concatenation alone would not.
func TestKeyPartBoundaries(t *testing.T) {
	k1 := NewKey([]byte("ab"), []byte("c"))
	k2 := NewKey([]byte("a"), []byte("bc"))
	if k1 == k2 {
		t.Fatalf("part boundaries not keyed: (ab,c) and (a,bc) collide")
	}
}

func TestCorruptEntryDetectedAndHealed(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	key := NewKey([]byte("app"))
	if _, err := s.Put(key, []byte("some serialized result")); err != nil {
		t.Fatalf("Put: %v", err)
	}
	path := filepath.Join(dir, key.Filename())

	corruptions := []struct {
		name   string
		mangle func(t *testing.T, data []byte)
	}{
		{"truncated mid-payload", func(t *testing.T, data []byte) {
			writeRaw(t, path, data[:len(data)-5])
		}},
		{"payload bit flipped", func(t *testing.T, data []byte) {
			data[len(data)-1] ^= 0x40
			writeRaw(t, path, data)
		}},
		{"bad magic", func(t *testing.T, data []byte) {
			data[0] = 'X'
			writeRaw(t, path, data)
		}},
		{"trailing garbage", func(t *testing.T, data []byte) {
			writeRaw(t, path, append(data, 0xFF))
		}},
	}
	for _, tc := range corruptions {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := s.Put(key, []byte("some serialized result")); err != nil {
				t.Fatalf("Put: %v", err)
			}
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("read entry: %v", err)
			}
			tc.mangle(t, data)
			if _, status := s.Get(key); status != StatusCorrupt {
				t.Fatalf("Get on mangled entry = %v, want corrupt", status)
			}
			// Corruption heals: the entry is deleted, later probes miss.
			if _, err := os.Stat(path); !os.IsNotExist(err) {
				t.Fatalf("corrupt entry not removed (stat err=%v)", err)
			}
			if _, status := s.Get(key); status != StatusMiss {
				t.Fatalf("Get after heal = %v, want miss", status)
			}
		})
	}
}

func writeRaw(t *testing.T, path string, data []byte) {
	t.Helper()
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatalf("write %s: %v", path, err)
	}
}

// TestKindMismatchIsCorrupt: an entry stored under a result key but
// carrying an envelope of the retired summary kind is corruption.
func TestKindMismatchIsCorrupt(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	key := NewKey([]byte("app"))
	writeRaw(t, filepath.Join(dir, key.Filename()), summaryEnvelope([]byte("payload")))
	if _, status := s.Get(key); status != StatusCorrupt {
		t.Fatalf("Get on kind-mismatched entry = %v, want corrupt", status)
	}
}

// TestSummaryFilesFromEarlierEngines: a directory filled by an engine
// that also stored per-class summary entries holds s-<hex>.nce files.
// The store never reads them — no key maps to their names, and the hub
// surface refuses them — yet they count toward MaxBytes and LRU
// eviction removes them like any other entry.
func TestSummaryFilesFromEarlierEngines(t *testing.T) {
	dir := t.TempDir()
	payload := bytes.Repeat([]byte("x"), 1000)
	entrySize := int64(len(EncodeEntry(payload)))
	old := time.Now().Add(-time.Hour)
	var names []string
	for i := 0; i < 2; i++ {
		key := NewKey([]byte{byte('a' + i)})
		name := "s" + key.Filename()[1:]
		path := filepath.Join(dir, name)
		writeRaw(t, path, summaryEnvelope(payload))
		mt := old.Add(time.Duration(i) * time.Minute)
		if err := os.Chtimes(path, mt, mt); err != nil {
			t.Fatalf("chtimes: %v", err)
		}
		names = append(names, name)
	}
	// Room for the two summary files or for one of them plus a result
	// entry, never for all three.
	s := mustOpen(t, dir, Options{MaxBytes: 2*entrySize + entrySize/2})

	for i, name := range names {
		if _, ok := ParseFilename(name); ok {
			t.Errorf("ParseFilename accepted %q", name)
		}
		if _, ok := s.GetEnvelope(name); ok {
			t.Errorf("GetEnvelope served %q", name)
		}
		// A key with the same hash names the result file, not this one.
		if _, status := s.Get(NewKey([]byte{byte('a' + i)})); status != StatusMiss {
			t.Errorf("Get over %q = %v, want miss", name, status)
		}
		info, err := os.Stat(filepath.Join(dir, name))
		if err != nil {
			t.Fatalf("%s removed by a read: %v", name, err)
		}
		if !info.ModTime().Equal(old.Add(time.Duration(i) * time.Minute)) {
			t.Errorf("%s: mtime refreshed by a read", name)
		}
	}

	evicted, err := s.Put(NewKey([]byte("app")), payload)
	if err != nil {
		t.Fatalf("Put: %v", err)
	}
	if evicted != 1 {
		t.Fatalf("Put evicted %d entries, want 1 (the older summary file)", evicted)
	}
	if _, err := os.Stat(filepath.Join(dir, names[0])); !os.IsNotExist(err) {
		t.Errorf("LRU victim %s still on disk", names[0])
	}
	if _, err := os.Stat(filepath.Join(dir, names[1])); err != nil {
		t.Errorf("newer summary file evicted: %v", err)
	}
	if _, status := s.Get(NewKey([]byte("app"))); status != StatusHit {
		t.Errorf("result entry = %v, want hit", status)
	}
}

func TestLRUEviction(t *testing.T) {
	dir := t.TempDir()
	payload := bytes.Repeat([]byte("x"), 1000)
	entrySize := int64(len(EncodeEntry(payload)))
	// Room for 3 entries, not 4.
	s := mustOpen(t, dir, Options{MaxBytes: 3*entrySize + entrySize/2})

	keys := make([]Key, 4)
	base := time.Now().Add(-time.Hour)
	for i := 0; i < 3; i++ {
		keys[i] = NewKey([]byte{byte('a' + i)})
		if _, err := s.Put(keys[i], payload); err != nil {
			t.Fatalf("Put %d: %v", i, err)
		}
		// Pin distinct mtimes so LRU order is deterministic: key 0 oldest.
		mt := base.Add(time.Duration(i) * time.Minute)
		if err := os.Chtimes(filepath.Join(dir, keys[i].Filename()), mt, mt); err != nil {
			t.Fatalf("chtimes: %v", err)
		}
	}
	// Touch key 0: a Get bumps recency, so key 1 becomes the LRU victim.
	if _, status := s.Get(keys[0]); status != StatusHit {
		t.Fatalf("Get keys[0] = %v, want hit", status)
	}

	keys[3] = NewKey([]byte{'d'})
	evicted, err := s.Put(keys[3], payload)
	if err != nil {
		t.Fatalf("Put over budget: %v", err)
	}
	if evicted == 0 {
		t.Fatalf("Put over budget evicted nothing")
	}
	if _, status := s.Get(keys[1]); status != StatusMiss {
		t.Fatalf("LRU victim keys[1] = %v, want miss (evicted)", status)
	}
	for _, i := range []int{0, 2, 3} {
		if _, status := s.Get(keys[i]); status != StatusHit {
			t.Fatalf("keys[%d] = %v, want hit (recently used / fresh)", i, status)
		}
	}
}

// TestOversizedPayloadSkipped: an entry larger than the whole budget is
// not written (writing it would immediately evict everything including
// itself).
func TestOversizedPayloadSkipped(t *testing.T) {
	s := mustOpen(t, t.TempDir(), Options{MaxBytes: 128})
	key := NewKey([]byte("big"))
	if _, err := s.Put(key, bytes.Repeat([]byte("x"), 4096)); err != nil {
		t.Fatalf("Put oversized: %v", err)
	}
	if _, status := s.Get(key); status != StatusMiss {
		t.Fatalf("oversized entry = %v, want miss (skipped)", status)
	}
	if n := s.Len(); n != 0 {
		t.Fatalf("Len = %d, want 0", n)
	}
}

// TestSharedIdentity: Shared returns one Store per directory, so
// concurrent scans in one process coordinate eviction.
func TestSharedIdentity(t *testing.T) {
	dir := t.TempDir()
	s1, err := Shared(dir, Options{})
	if err != nil {
		t.Fatalf("Shared: %v", err)
	}
	s2, err := Shared(dir+string(filepath.Separator)+".", Options{}) // same dir, different spelling
	if err != nil {
		t.Fatalf("Shared: %v", err)
	}
	if s1 != s2 {
		t.Fatalf("Shared returned distinct stores for one directory")
	}
	other, err := Shared(t.TempDir(), Options{})
	if err != nil {
		t.Fatalf("Shared: %v", err)
	}
	if other == s1 {
		t.Fatalf("Shared returned one store for distinct directories")
	}
}

// TestStaleTempSweep: crashed writers leave put-*.tmp files; eviction
// sweeps old ones but leaves fresh ones (a concurrent writer mid-commit).
func TestStaleTempSweep(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{MaxBytes: 1 << 20})
	stale := filepath.Join(dir, "put-stale.tmp")
	fresh := filepath.Join(dir, "put-fresh.tmp")
	writeRaw(t, stale, []byte("crashed writer leftovers"))
	writeRaw(t, fresh, []byte("in-flight write"))
	old := time.Now().Add(-2 * time.Hour)
	if err := os.Chtimes(stale, old, old); err != nil {
		t.Fatalf("chtimes: %v", err)
	}
	if _, err := s.Put(NewKey([]byte("k")), []byte("v")); err != nil {
		t.Fatalf("Put: %v", err)
	}
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Fatalf("stale temp file not swept (err=%v)", err)
	}
	if _, err := os.Stat(fresh); err != nil {
		t.Fatalf("fresh temp file swept: %v", err)
	}
}

// TestHotEntrySurvivesCoarseMtimeEviction is the regression test for the
// mtime-only LRU clock: on a coarse-granularity filesystem (or when
// Chtimes fails) a burst of hits leaves the hot entry's mtime equal to —
// or older than — the cold entries', and the filename tie-break then
// evicts the hot entry first. The in-memory recency overlay must keep it
// alive. The test simulates the coarse clock by collapsing every entry's
// mtime to one shared tick after the hits happened.
func TestHotEntrySurvivesCoarseMtimeEviction(t *testing.T) {
	dir := t.TempDir()
	payload := bytes.Repeat([]byte("x"), 1000)
	entrySize := int64(len(EncodeEntry(payload)))
	s := mustOpen(t, dir, Options{MaxBytes: 3*entrySize + entrySize/2})

	// Three keys, Put in lexical filename order so the hot entry (the
	// lexically smallest) is both the tie-break victim and the oldest
	// write — the worst case for any recency tracking weaker than
	// touch-on-Get.
	keys := make([]Key, 3)
	for i := range keys {
		keys[i] = NewKey([]byte{byte('a' + i)})
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i].Filename() < keys[j].Filename() })
	for i, k := range keys {
		if _, err := s.Put(k, payload); err != nil {
			t.Fatalf("Put %d: %v", i, err)
		}
	}
	hot := keys[0]

	// Hammer hits on the hot entry — all within what a coarse-mtime
	// filesystem would record as a single tick.
	for i := 0; i < 5; i++ {
		if _, status := s.Get(hot); status != StatusHit {
			t.Fatalf("Get hot = %v, want hit", status)
		}
	}
	// Collapse every entry's mtime to one shared past tick, wiping out
	// whatever recency Chtimes recorded.
	tick := time.Now().Add(-time.Hour).Truncate(time.Second)
	for _, k := range keys {
		if err := os.Chtimes(filepath.Join(dir, k.Filename()), tick, tick); err != nil {
			t.Fatalf("chtimes: %v", err)
		}
	}

	// A fourth Put overflows the budget and must evict a cold entry, not
	// the hot one.
	if _, err := s.Put(NewKey([]byte("fresh")), payload); err != nil {
		t.Fatalf("Put over budget: %v", err)
	}
	if _, status := s.Get(hot); status != StatusHit {
		t.Fatalf("hot entry = %v, want hit (evicted despite being hottest)", status)
	}
	misses := 0
	for _, k := range keys[1:] {
		if _, status := s.Get(k); status == StatusMiss {
			misses++
		}
	}
	if misses == 0 {
		t.Fatalf("no cold entry was evicted")
	}
}

// TestEvictionTieBreakDeterministic: entries this process never touched
// (written by another process, say) with identical mtimes must be evicted
// in a deterministic order — lexical filename order.
func TestEvictionTieBreakDeterministic(t *testing.T) {
	dir := t.TempDir()
	payload := bytes.Repeat([]byte("y"), 1000)
	raw := EncodeEntry(payload)
	entrySize := int64(len(raw))

	// Three committed entries written behind the store's back: no overlay
	// recency, identical mtimes.
	keys := make([]Key, 3)
	for i := range keys {
		keys[i] = NewKey([]byte{byte('p' + i)})
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i].Filename() < keys[j].Filename() })
	tick := time.Now().Add(-time.Hour).Truncate(time.Second)
	for _, k := range keys {
		path := filepath.Join(dir, k.Filename())
		writeRaw(t, path, raw)
		if err := os.Chtimes(path, tick, tick); err != nil {
			t.Fatalf("chtimes: %v", err)
		}
	}

	// Budget for two old entries plus the new one: the eviction triggered
	// by the first Put must remove exactly the lexically-smallest old
	// entry.
	s := mustOpen(t, dir, Options{MaxBytes: 3*entrySize + entrySize/2})
	if _, err := s.Put(NewKey([]byte("new")), payload); err != nil {
		t.Fatalf("Put: %v", err)
	}
	if _, status := s.Get(keys[0]); status != StatusMiss {
		t.Fatalf("keys[0] = %v, want miss (deterministic tie-break victim)", status)
	}
	for _, i := range []int{1, 2} {
		if _, status := s.Get(keys[i]); status != StatusHit {
			t.Fatalf("keys[%d] = %v, want hit", i, status)
		}
	}
}

func TestFilenameShape(t *testing.T) {
	k := NewKey([]byte("x"))
	name := k.Filename()
	if name[:2] != "r-" {
		t.Fatalf("Filename %q does not start with the result kind", name)
	}
	if filepath.Base(name) != name {
		t.Fatalf("Filename %q contains path separators", name)
	}
	if want := 1 + 1 + 2*sha256.Size + len(".nce"); len(name) != want {
		t.Fatalf("Filename %q length = %d, want %d", name, len(name), want)
	}
}

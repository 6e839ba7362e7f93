// Package cachestore is NChecker's persistent, content-addressed scan
// cache: an on-disk store of serialized whole-app scan results, keyed by
// SHA-256 over the inputs that determine them (the app's container
// bytes, the apimodel registry fingerprint, the engine version, and the
// analysis options — see internal/checkers/cache.go for the key anatomy
// and DESIGN.md §7 for the invalidation rules).
//
// The store is crash-safe and self-healing by construction:
//
//   - commits are atomic write-then-rename, so a crashed writer leaves at
//     worst an orphaned temp file, never a half-written entry;
//   - every entry is a checksummed envelope (codec.go); a truncated or
//     bit-flipped entry decodes as corrupt, is deleted, and reads as a
//     miss — the caller falls back to a cold scan and rewrites it;
//   - the total size is LRU-bounded: Put evicts least-recently-used
//     entries until under MaxBytes. Hits refresh recency twice: via mtime
//     (durable, visible to other processes) and via an in-memory overlay
//     (nanosecond-precise), so hot entries stay hot even on filesystems
//     with coarse mtime granularity or when Chtimes fails.
//
// Get/Put never return errors the caller must abort on: cache trouble
// degrades to a cold scan, it does not fail the scan.
package cachestore

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// entryKind is the format's kind byte: the first byte of every entry
// filename and the fifth of every envelope. The store holds one kind of
// entry (a whole-app ResultEntry); files of any other kind — the
// per-class summary entries ('s') of earlier engines — are never read,
// fail ParseFilename and DecodeEntry, and age out through LRU eviction.
const entryKind byte = 'r'

// DefaultMaxBytes is the default LRU size bound (256 MiB).
const DefaultMaxBytes int64 = 256 << 20

// entryExt suffixes committed entries; temp files never carry it, so a
// crashed writer's leftovers are invisible to Get and to the LRU scan.
const entryExt = ".nce"

// Key addresses one cache entry: a SHA-256 over the entry's identity
// parts.
type Key struct {
	Sum [sha256.Size]byte
}

// NewKey hashes the parts (length-prefixed, so part boundaries are
// unambiguous) into a key. Flipping any single part — app bytes, registry
// fingerprint, engine version, options — yields a different key, which is
// the store's entire invalidation story.
func NewKey(parts ...[]byte) Key {
	h := sha256.New()
	var lenBuf [8]byte
	for _, p := range parts {
		binary.LittleEndian.PutUint64(lenBuf[:], uint64(len(p)))
		h.Write(lenBuf[:])
		h.Write(p)
	}
	var k Key
	h.Sum(k.Sum[:0])
	return k
}

// Filename is the entry's on-disk name within the store directory.
func (k Key) Filename() string {
	return fmt.Sprintf("%c-%x%s", entryKind, k.Sum, entryExt)
}

// GetStatus classifies a Get outcome.
type GetStatus uint8

const (
	// StatusMiss: no entry under the key.
	StatusMiss GetStatus = iota
	// StatusHit: the entry decoded and checksummed clean.
	StatusHit
	// StatusCorrupt: an entry existed but failed envelope validation
	// (truncated writer crash, bit rot, foreign kind). The file has been
	// removed; the caller should treat it as a miss and rescan cold.
	StatusCorrupt
)

// Options tunes a Store.
type Options struct {
	// MaxBytes bounds the total committed-entry size; Put evicts the
	// least-recently-used entries to stay under it. <= 0 means
	// DefaultMaxBytes.
	MaxBytes int64
}

// Store is one cache directory. All methods are safe for concurrent use
// by multiple goroutines; concurrent processes sharing the directory are
// safe too (atomic renames), though their LRU scans may race benignly.
type Store struct {
	dir      string
	maxBytes int64

	// evictMu serializes eviction scans so concurrent Puts don't double-
	// delete; commits themselves need no lock (rename is atomic).
	evictMu sync.Mutex

	// used approximates the committed-entry total so Put can stay O(1):
	// initialized from one directory scan on the first Put, then bumped
	// per commit. The approximation only ever errs high (overwrites and
	// concurrent removals aren't subtracted), which at worst triggers an
	// eviction scan early — the scan itself recomputes the true total.
	usedInit sync.Once
	used     atomic.Int64

	// recency overlays the on-disk mtimes with the last time this process
	// touched each entry (Get hit or Put commit). mtime alone is not a
	// reliable LRU clock: coarse-granularity filesystems collapse a burst
	// of hits into one tick, and Chtimes is best-effort — either way hot
	// entries sort equal-or-older than cold ones and get evicted first.
	// evict merges the overlay (taking the newer of overlay and mtime), so
	// in-process recency always wins; entries touched only by other
	// processes still order by their mtimes.
	recMu   sync.Mutex
	recency map[string]time.Time

	// repl, when set, extends the store across processes: Get falls back
	// to it on a local miss, Put pushes committed entries to it
	// (replicate.go — the fleet cache-replication path).
	replMu sync.RWMutex
	repl   Replicator
}

// touch records an in-process recency observation for the entry filename.
func (s *Store) touch(name string, t time.Time) {
	s.recMu.Lock()
	if s.recency == nil {
		s.recency = make(map[string]time.Time)
	}
	s.recency[name] = t
	s.recMu.Unlock()
}

// Open opens (creating if needed) the cache directory.
func Open(dir string, opts Options) (*Store, error) {
	if dir == "" {
		return nil, errors.New("cachestore: empty directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("cachestore: %w", err)
	}
	max := opts.MaxBytes
	if max <= 0 {
		max = DefaultMaxBytes
	}
	return &Store{dir: dir, maxBytes: max}, nil
}

var (
	sharedMu sync.Mutex
	shared   = make(map[string]*Store)
)

// Shared returns the process-wide Store for the directory, opening it on
// first use. Batch scans hitting the same -cache directory share one
// Store (one eviction lock) instead of opening it per app. The first
// opener's Options win.
func Shared(dir string, opts Options) (*Store, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, fmt.Errorf("cachestore: %w", err)
	}
	sharedMu.Lock()
	defer sharedMu.Unlock()
	if s, ok := shared[abs]; ok {
		return s, nil
	}
	s, err := Open(abs, opts)
	if err != nil {
		return nil, err
	}
	shared[abs] = s
	return s, nil
}

// Dir returns the store's directory.
func (s *Store) Dir() string { return s.dir }

// Get looks the key up. On a hit it returns the entry payload and bumps
// the entry's recency (mtime). A corrupt entry is deleted and reported as
// StatusCorrupt; unreadable files read as misses. When a Replicator is
// wired (SetReplicator), a local miss falls back to a remote fetch: a
// clean fetched envelope is committed locally and answered as a hit, and
// any replication trouble stays a plain miss.
func (s *Store) Get(key Key) ([]byte, GetStatus) {
	path := filepath.Join(s.dir, key.Filename())
	data, err := os.ReadFile(path)
	if err != nil {
		return s.getRemote(key)
	}
	payload, err := DecodeEntry(data)
	if err != nil {
		// Corruption detection: a truncated or damaged entry must never
		// surface as a result. Remove it so the next Put heals the slot.
		os.Remove(path)
		return nil, StatusCorrupt
	}
	now := time.Now()
	os.Chtimes(path, now, now) // durable LRU recency; best-effort
	s.touch(key.Filename(), now)
	return payload, StatusHit
}

// getRemote is Get's miss path: consult the Replicator, validate the
// fetched envelope exactly like a local read, commit it locally so the
// next Get is a disk hit, and answer the payload. Every failure mode —
// no replicator, remote miss, corrupt transfer, commit trouble — reads
// as a plain miss.
func (s *Store) getRemote(key Key) ([]byte, GetStatus) {
	r := s.replicator()
	if r == nil {
		return nil, StatusMiss
	}
	data := r.Fetch(key.Filename())
	if data == nil {
		return nil, StatusMiss
	}
	payload, err := DecodeEntry(data)
	if err != nil {
		// A damaged or mismatched transfer must never surface as a hit,
		// and must not be committed.
		return nil, StatusMiss
	}
	if _, err := s.commitRaw(key, data); err != nil {
		// The payload itself is valid; serve it even if the local commit
		// failed (e.g. a read-only filesystem) — replication must only
		// ever add hits.
		return payload, StatusHit
	}
	return payload, StatusHit
}

// Put commits the payload under the key with write-then-rename atomicity,
// then evicts LRU entries until the store is under its size bound. It
// returns how many entries were evicted. A payload that alone exceeds the
// bound is skipped (not an error): caching it would immediately evict
// everything else. With a Replicator wired, a committed entry is also
// pushed to the remote side (best-effort) so peers can hit it.
func (s *Store) Put(key Key, payload []byte) (evicted int, err error) {
	data := EncodeEntry(payload)
	evicted, err = s.commitRaw(key, data)
	if err == nil {
		if r := s.replicator(); r != nil {
			r.Push(key.Filename(), data)
		}
	}
	return evicted, err
}

// commitRaw commits an already-encoded entry envelope. It is the shared
// write path of Put, PutEnvelope, and remote-fetch commits; it never
// pushes to the Replicator, so hub writes and fetched-entry commits
// cannot echo back out.
func (s *Store) commitRaw(key Key, data []byte) (evicted int, err error) {
	if int64(len(data)) > s.maxBytes {
		return 0, nil
	}
	tmp, err := os.CreateTemp(s.dir, "put-*.tmp")
	if err != nil {
		return 0, fmt.Errorf("cachestore: %w", err)
	}
	tmpName := tmp.Name()
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return 0, fmt.Errorf("cachestore: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return 0, fmt.Errorf("cachestore: %w", err)
	}
	if err := os.Rename(tmpName, filepath.Join(s.dir, key.Filename())); err != nil {
		os.Remove(tmpName)
		return 0, fmt.Errorf("cachestore: %w", err)
	}
	s.touch(key.Filename(), time.Now())
	// The first commit pays for one directory scan (pre-existing entries
	// plus crashed writers' stale temp files); after that Put is O(1) and
	// the full LRU scan only runs when the running total crosses the
	// bound. The first scan already counts this commit, so it reports its
	// own evictions instead of adding the entry a second time.
	first := false
	s.usedInit.Do(func() { evicted, first = s.evict(), true })
	if first {
		return evicted, nil
	}
	if s.used.Add(int64(len(data))) > s.maxBytes {
		return s.evict(), nil
	}
	return 0, nil
}

// Remove deletes the entry under the key, if present.
func (s *Store) Remove(key Key) {
	os.Remove(filepath.Join(s.dir, key.Filename()))
	s.recMu.Lock()
	delete(s.recency, key.Filename())
	s.recMu.Unlock()
}

// Len returns the number of committed entries.
func (s *Store) Len() int {
	n := 0
	ents, _ := os.ReadDir(s.dir)
	for _, e := range ents {
		if !e.IsDir() && strings.HasSuffix(e.Name(), entryExt) {
			n++
		}
	}
	return n
}

// evict removes least-recently-used entries until the committed total is
// within maxBytes, and sweeps stale temp files from crashed writers. An
// entry's recency is the newer of its mtime and this process's in-memory
// overlay, so a burst of hits inside one coarse mtime tick (or with
// Chtimes failing) still protects the hot entry; ties break
// deterministically by filename. evict leaves s.used holding the
// post-eviction true total. Returns the number of entries removed.
func (s *Store) evict() int {
	s.evictMu.Lock()
	defer s.evictMu.Unlock()

	type entry struct {
		name  string
		size  int64
		mtime time.Time
	}
	var entries []entry
	var total int64
	dirents, err := os.ReadDir(s.dir)
	if err != nil {
		return 0
	}
	staleCutoff := time.Now().Add(-time.Hour)
	for _, de := range dirents {
		if de.IsDir() {
			continue
		}
		info, err := de.Info()
		if err != nil {
			continue
		}
		if !strings.HasSuffix(de.Name(), entryExt) {
			// A crashed writer's temp file: sweep it once it is clearly
			// abandoned (an active writer renames within moments).
			if strings.HasPrefix(de.Name(), "put-") && info.ModTime().Before(staleCutoff) {
				os.Remove(filepath.Join(s.dir, de.Name()))
			}
			continue
		}
		entries = append(entries, entry{name: de.Name(), size: info.Size(), mtime: info.ModTime()})
		total += info.Size()
	}
	// Merge the in-memory recency overlay (newer wins) and prune overlay
	// records for entries no other process left on disk.
	s.recMu.Lock()
	present := make(map[string]bool, len(entries))
	for i := range entries {
		present[entries[i].name] = true
		if t, ok := s.recency[entries[i].name]; ok && t.After(entries[i].mtime) {
			entries[i].mtime = t
		}
	}
	for name := range s.recency {
		if !present[name] {
			delete(s.recency, name)
		}
	}
	s.recMu.Unlock()
	if total <= s.maxBytes {
		s.used.Store(total)
		return 0
	}
	sort.Slice(entries, func(i, j int) bool {
		if !entries[i].mtime.Equal(entries[j].mtime) {
			return entries[i].mtime.Before(entries[j].mtime)
		}
		return entries[i].name < entries[j].name
	})
	evicted := 0
	for _, e := range entries {
		if total <= s.maxBytes {
			break
		}
		err := os.Remove(filepath.Join(s.dir, e.name))
		if err != nil && !errors.Is(err, fs.ErrNotExist) {
			continue
		}
		s.recMu.Lock()
		delete(s.recency, e.name)
		s.recMu.Unlock()
		total -= e.size
		evicted++
	}
	s.used.Store(total)
	return evicted
}

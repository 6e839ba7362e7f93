package cachestore

import (
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// This file is the fleet cache-replication path (DESIGN.md §12): a Store
// can be wired to a Replicator so one process's cache traffic serves a
// whole worker fleet. The worker side sets a Replicator that talks to the
// coordinator's cache hub over HTTP; the hub side is itself a plain Store
// exposed through GetEnvelope/PutEnvelope, which move checksummed entry
// envelopes verbatim — the envelope checksum (codec.go) rides along, so a
// truncated or corrupted transfer is rejected exactly like on-disk rot.
//
// Failure semantics match the rest of the store: replication trouble of
// any kind degrades to a local miss (cold scan), never to an error the
// scan must handle. A fetched entry is committed locally before use, so
// subsequent scans hit without touching the network; a locally committed
// entry is pushed best-effort, so peers can hit without recomputing.

// Replicator is a remote entry exchange: Fetch returns the raw entry
// envelope for a filename (nil on miss or any failure), Push offers a
// freshly committed envelope to the remote side (best-effort, errors
// swallowed by the implementation). Implementations must be safe for
// concurrent use.
type Replicator interface {
	Fetch(name string) []byte
	Push(name string, data []byte)
}

// SetReplicator wires r into the store: Get consults it after a local
// miss (committing fetched entries locally), Put pushes committed entries
// to it. Pass nil to detach. Safe to call concurrently with store use.
func (s *Store) SetReplicator(r Replicator) {
	s.replMu.Lock()
	s.repl = r
	s.replMu.Unlock()
}

// replicator returns the current Replicator, or nil.
func (s *Store) replicator() Replicator {
	s.replMu.RLock()
	defer s.replMu.RUnlock()
	return s.repl
}

// ParseFilename reverses Key.Filename: it accepts exactly the names a
// committed entry can carry (kind byte, dash, 64 hex digits, entry
// extension) so the cache-hub HTTP surface can validate requested names
// before touching the filesystem.
func ParseFilename(name string) (Key, bool) {
	var k Key
	if len(name) != 2+2*len(k.Sum)+len(entryExt) || !strings.HasSuffix(name, entryExt) {
		return k, false
	}
	if name[0] != entryKind || name[1] != '-' {
		return k, false
	}
	sum, err := hex.DecodeString(name[2 : 2+2*len(k.Sum)])
	if err != nil {
		return k, false
	}
	copy(k.Sum[:], sum)
	return k, true
}

// GetEnvelope serves one committed entry's raw envelope bytes by
// filename — the hub side of replication. The envelope is validated
// before serving (a corrupt entry is deleted and reads as a miss, the
// same healing Get performs) and the read refreshes hub LRU recency, so
// fleet-hot entries stay resident.
func (s *Store) GetEnvelope(name string) ([]byte, bool) {
	if _, ok := ParseFilename(name); !ok {
		return nil, false
	}
	path := filepath.Join(s.dir, name)
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, false
	}
	if _, err := DecodeEntry(data); err != nil {
		os.Remove(path)
		return nil, false
	}
	now := time.Now()
	os.Chtimes(path, now, now)
	s.touch(name, now)
	return data, true
}

// PutEnvelope accepts one raw entry envelope by filename — the hub side
// of a worker push. The name must parse and the envelope must checksum
// clean under the store's one entry kind; anything else is rejected so a
// confused or malicious writer cannot plant corrupt entries. Accepted
// envelopes commit atomically under the LRU bound like any local Put.
func (s *Store) PutEnvelope(name string, data []byte) error {
	key, ok := ParseFilename(name)
	if !ok {
		return fmt.Errorf("cachestore: invalid entry name %q", name)
	}
	if _, err := DecodeEntry(data); err != nil {
		return fmt.Errorf("cachestore: rejected envelope for %q: %w", name, err)
	}
	_, err := s.commitRaw(key, data)
	return err
}

package cachestore

import (
	"encoding/binary"
	"os"
	"path/filepath"
)

// totalFile holds the committed-entry total of the directory, eight bytes
// little-endian, shared by every process that uses it. An exclusive lock
// on the file (lockFile) is the cross-process lock under which the total
// is read and changed, and under which a commit renames its entry into
// place and an eviction scan runs, so every Put counts every process's
// commits. Its name fails ParseFilename and carries no "put-" prefix, so
// no scan treats it as an entry or a stale temp file.
const totalFile = "total.lock"

// lockedTotal is the committed-entry total, held under the directory's
// lock from lockTotal until unlock. known is false when no total has been
// recorded yet: the caller then scans the directory for it.
type lockedTotal struct {
	total int64
	known bool
	s     *Store
	// f is the locked total file; nil where the directory cannot be
	// locked across processes, and the total is the Store's own.
	f *os.File
}

// lockTotal takes the directory's lock and reads the total. Where the
// file cannot be opened or locked (a filesystem without locks, a platform
// without flock), it falls back to a total of the Store's own under
// localMu: the bound then holds for this process's commits only.
func (s *Store) lockTotal() *lockedTotal {
	if f, err := os.OpenFile(filepath.Join(s.dir, totalFile), os.O_RDWR|os.O_CREATE, 0o644); err == nil {
		if lockFile(f) == nil {
			t := &lockedTotal{s: s, f: f}
			var buf [8]byte
			if n, _ := f.ReadAt(buf[:], 0); n == len(buf) {
				t.total, t.known = int64(binary.LittleEndian.Uint64(buf[:])), true
			}
			return t
		}
		f.Close()
	}
	s.localMu.Lock()
	return &lockedTotal{s: s, total: s.local, known: s.localKnown}
}

// set records a new total.
func (t *lockedTotal) set(total int64) {
	t.total, t.known = total, true
	if t.f == nil {
		t.s.local, t.s.localKnown = total, true
		return
	}
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(total))
	t.f.WriteAt(buf[:], 0)
}

// unlock releases the lock.
func (t *lockedTotal) unlock() {
	if t.f == nil {
		t.s.localMu.Unlock()
		return
	}
	t.f.Close() // closing the file releases its lock
}

// Package arena carves a scan's short-lived arrays — the decoded program's
// class headers and bodies, the per-method kernels' graphs and bit rows,
// the call graph's per-scan tables — from chunks that outlive the scan,
// so a steady stream of scans stops allocating them. A scan owns its
// slabs alone (one scan runs on one goroutine), so a slab takes no locks.
// Nothing a scan's Result reaches may be carved from a slab that is
// reset: Reset hands the memory to the next scan.
package arena

import (
	"testing"
	"unsafe"
)

// MaxKeptBytes bounds what each slab, and each buffer a scan's scratch
// keeps beside its slabs, holds on to for the next scan: kept memory
// counts against the heap goal like live memory does, so one large scan
// does not make every later scan carry its arrays.
const MaxKeptBytes = 32 << 10

// Junk is the string a test binary writes over recycled memory, in place
// of every name a recycled value held: a value that outlived its scan
// reads it instead of a plausible name.
const Junk = "\x00recycled"

// Keep returns s for a scratch to hold on to for the next scan, or nil
// when its capacity passes MaxKeptBytes.
func Keep[T any](s []T) []T {
	var zero T
	if cap(s)*int(unsafe.Sizeof(zero)) > MaxKeptBytes {
		return nil
	}
	return s
}

// Slab hands out zeroed slices of T carved from its chunks, in order,
// until Reset makes every chunk free again. The zero Slab is empty and
// ready to carve.
type Slab[T any] struct {
	chunks [][]T
	cur    int // the chunk being carved
	used   int // items carved from chunks[cur]
}

// minChunk is the smallest chunk a slab allocates, in items: small, since
// some slabs carve only a few items before they are dropped (the
// signatures of one open, or of one Index.Sig call, in dex).
const minChunk = 8

// Make returns a zeroed slice of n items, capped at n, so appending to
// it never writes into the next.
func (s *Slab[T]) Make(n int) []T {
	if n == 0 {
		return make([]T, 0)
	}
	for ; s.cur < len(s.chunks); s.cur, s.used = s.cur+1, 0 {
		if c := s.chunks[s.cur]; len(c)-s.used >= n {
			out := c[s.used : s.used+n : s.used+n]
			s.used += n
			if testing.Testing() {
				// Reset filled the chunk with junk.
				clear(out)
			}
			return out
		}
	}
	size := max(n, minChunk)
	if k := len(s.chunks); k > 0 {
		size = max(size, 2*len(s.chunks[k-1]))
	}
	c := make([]T, size)
	s.chunks = append(s.chunks, c)
	s.cur, s.used = len(s.chunks)-1, n
	return c[:n:n]
}

// New returns a pointer to a zeroed T carved from s.
func (s *Slab[T]) New() *T { return &s.Make(1)[0] }

// Reset makes every chunk free for the next scan's slices, clearing what
// was carved so the slab keeps nothing of the scan alive; in a test
// binary junk is written over it instead (Make clears it again when it
// carves), so a value that outlived its scan reads junk. The chunks past
// the first MaxKeptBytes bytes go to the collector.
func (s *Slab[T]) Reset(junk func(*T)) {
	var zero T
	itemBytes := int(unsafe.Sizeof(zero))
	kept, total := 0, 0
	for i, c := range s.chunks {
		if i < s.cur || (i == s.cur && s.used > 0) {
			n := len(c)
			if i == s.cur {
				n = s.used
			}
			if testing.Testing() {
				for k := range c[:n] {
					junk(&c[k])
				}
			} else {
				clear(c[:n])
			}
		}
		if total += len(c) * itemBytes; total <= MaxKeptBytes {
			kept = i + 1
		}
	}
	clear(s.chunks[kept:])
	s.chunks, s.cur, s.used = s.chunks[:kept], 0, 0
}

// Package arena carves a scan's short-lived arrays — the per-method
// kernels' graphs and bit rows, the call graph's per-scan tables — from
// chunks that outlive the scan, so a steady stream of scans stops
// allocating them. A scan owns its slabs alone (one scan runs on one
// goroutine), so a slab takes no locks. Nothing a scan's Result reaches
// may be carved from a slab: Reset hands the memory to the next scan.
package arena

import (
	"testing"
	"unsafe"
)

// Slab hands out zeroed slices of T carved from its chunks, in order,
// until Reset makes every chunk free again. A nil *Slab allocates each
// slice from the heap, so a caller with no scan scratch (a test, a
// one-off analysis) runs the same code.
type Slab[T any] struct {
	chunks [][]T
	cur    int // the chunk being carved
	used   int // items carved from chunks[cur]
}

// minChunk is the smallest chunk a slab allocates, in items.
const minChunk = 64

// Make returns a zeroed slice of n items, capped at n.
func (s *Slab[T]) Make(n int) []T {
	if s == nil || n == 0 {
		return make([]T, n)
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
// the first maxBytes bytes go to the collector: what a slab keeps counts
// against the heap goal like live memory does, so one large scan does not
// make every later scan carry its arrays. A nil s is a no-op.
func (s *Slab[T]) Reset(maxBytes int, junk func(*T)) {
	if s == nil {
		return
	}
	var zero T
	itemBytes := int(unsafe.Sizeof(zero))
	kept, total := 0, 0
	for i, c := range s.chunks {
		if i < s.cur || (i == s.cur && s.used > 0) {
			n := len(c)
			if i == s.cur {
				n = s.used
			}
			if testing.Testing() && junk != nil {
				for k := range c[:n] {
					junk(&c[k])
				}
			} else {
				clear(c[:n])
			}
		}
		if total += len(c) * itemBytes; total <= maxBytes {
			kept = i + 1
		}
	}
	clear(s.chunks[kept:])
	s.chunks, s.cur, s.used = s.chunks[:kept], 0, 0
}

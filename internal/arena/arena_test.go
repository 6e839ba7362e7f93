package arena

import (
	"testing"
	"unsafe"
)

func TestMakeReturnsZeroedSlicesCappedAtN(t *testing.T) {
	var s Slab[int]
	for _, n := range []int{0, 1, 5, minChunk, 3 * minChunk} {
		got := s.Make(n)
		if len(got) != n || cap(got) != n {
			t.Fatalf("Make(%d): len %d, cap %d", n, len(got), cap(got))
		}
		for i, x := range got {
			if x != 0 {
				t.Fatalf("Make(%d)[%d] = %d, want 0", n, i, x)
			}
		}
		for i := range got {
			got[i] = -1
		}
	}
	a, b := s.Make(2), s.Make(2)
	a = append(a, 7) // capped: reallocates rather than write into b
	if b[0] != 0 || b[1] != 0 {
		t.Fatalf("appending to one slice wrote into the next: %v", b)
	}
	_ = a
}

func TestResetCarvesTheSameChunksInOrder(t *testing.T) {
	var s Slab[int]
	sizes := []int{3, minChunk, 1, 2 * minChunk}
	var first []*int
	for _, n := range sizes {
		first = append(first, &s.Make(n)[0])
	}
	chunks := len(s.chunks)
	s.Reset(func(x *int) { *x = -1 })
	for i, n := range sizes {
		if got := &s.Make(n)[0]; got != first[i] {
			t.Fatalf("after Reset, Make(%d) carved %p, want %p", n, got, first[i])
		}
	}
	if len(s.chunks) != chunks {
		t.Fatalf("after Reset the same requests allocated %d chunks, want %d", len(s.chunks), chunks)
	}
}

func TestLargeRequestGetsItsOwnChunk(t *testing.T) {
	var s Slab[int]
	s.Make(1)
	s.Reset(func(x *int) { *x = -1 })
	kept := len(s.chunks)
	big := 10 * minChunk
	got := s.Make(big)
	if len(s.chunks) != kept+1 || len(s.chunks[len(s.chunks)-1]) != big {
		t.Fatalf("Make(%d) over chunks %v: want one new chunk of exactly %d", big, chunkSizes(&s), big)
	}
	if &got[0] != &s.chunks[len(s.chunks)-1][0] {
		t.Fatal("the large request was not carved from its own chunk")
	}
}

func TestResetDropsChunksPastTheByteBound(t *testing.T) {
	var s Slab[int64]
	limit := MaxKeptBytes / int(unsafe.Sizeof(int64(0)))
	for total := 0; total <= 2*limit; total += minChunk {
		s.Make(minChunk)
	}
	s.Reset(func(x *int64) { *x = -1 })
	kept := 0
	for _, c := range s.chunks {
		kept += len(c)
	}
	if kept == 0 || kept > limit {
		t.Fatalf("Reset kept %d items in chunks %v, want 1..%d", kept, chunkSizes(&s), limit)
	}
	var huge Slab[int64]
	huge.Make(limit + 1)
	huge.Reset(func(x *int64) { *x = -1 })
	if len(huge.chunks) != 0 {
		t.Fatalf("Reset kept a chunk of %d items, over the %d-byte bound", limit+1, MaxKeptBytes)
	}
}

func TestResetFillsJunkAndMakeClearsIt(t *testing.T) {
	var s Slab[string]
	names := s.Make(4)
	for i := range names {
		names[i] = "live"
	}
	s.Reset(func(x *string) { *x = Junk })
	for i, x := range names {
		if x != Junk {
			t.Fatalf("after Reset, a carved item %d reads %q, want the junk marker", i, x)
		}
	}
	for i, x := range s.Make(4) {
		if x != "" {
			t.Fatalf("Make after Reset: item %d reads %q, want it cleared", i, x)
		}
	}
}

func TestKeepBoundsBuffers(t *testing.T) {
	limit := MaxKeptBytes / int(unsafe.Sizeof(int64(0)))
	if got := Keep(make([]int64, 0, limit)); cap(got) != limit {
		t.Fatalf("Keep dropped a buffer at the bound")
	}
	if got := Keep(make([]int64, 0, limit+1)); got != nil {
		t.Fatalf("Keep kept a buffer past the bound")
	}
}

func chunkSizes[T any](s *Slab[T]) []int {
	var out []int
	for _, c := range s.chunks {
		out = append(out, len(c))
	}
	return out
}

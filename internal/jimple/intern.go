package jimple

// Interner deduplicates the derived identifier strings the analyses key
// their maps by — Sig keys and subsignature keys — within one scope (a
// hierarchy or call-graph build). The same signature is referenced from
// many statements; without interning every reference re-renders and
// re-allocates the key string. An Interner renders into a reused buffer
// and allocates each distinct key exactly once.
//
// An Interner is not safe for concurrent use: scope one per build stage
// (the stages that construct graphs are single-threaded) and drop it when
// the build finishes so the scan retains only the strings still
// referenced by the built structures.
type Interner struct {
	m   map[string]string
	buf []byte
}

// NewInterner returns an empty Interner. The map starts unsized: a scan
// builds several Interners, most of which see far fewer than a few
// hundred keys, and a pre-sized map was a fifth of a small scan's bytes.
func NewInterner() *Interner {
	return &Interner{m: make(map[string]string)}
}

// intern returns the canonical copy of b's contents. The map lookup on
// string(b) does not allocate (the compiler elides the conversion); only
// a first sighting copies the bytes into a new string.
func (t *Interner) intern(b []byte) string {
	if s, ok := t.m[string(b)]; ok {
		return s
	}
	s := string(b)
	t.m[s] = s
	return s
}

// SigKey returns the interned canonical key of s (identical to s.Key()).
func (t *Interner) SigKey(s Sig) string {
	t.buf = s.AppendKey(t.buf[:0])
	return t.intern(t.buf)
}

// SubSigKey returns the interned subsignature key of s (identical to
// s.SubSigKey()).
func (t *Interner) SubSigKey(s Sig) string {
	t.buf = s.AppendSubSigKey(t.buf[:0])
	return t.intern(t.buf)
}

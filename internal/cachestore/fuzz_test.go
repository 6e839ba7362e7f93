package cachestore

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
)

// FuzzCacheEntry throws arbitrary bytes at the full decode path — the
// envelope plus the result payload codec. Cache entries are untrusted
// input (any process can write the cache directory), so the properties
// are:
//
//  1. decoding never panics, whatever the input;
//  2. only envelopes of the store's one kind decode — a summary entry
//     left by an earlier engine never reaches a payload decoder;
//  3. any entry that does decode re-encodes and re-decodes to the same
//     value (decode∘encode is the identity on the codec's image, the
//     canonical-form property the warm path's byte-identity rests on).
func FuzzCacheEntry(f *testing.F) {
	// Seed with well-formed result entries, envelopes of the retired
	// summary kind, and structured junk.
	rng := rand.New(rand.NewSource(2016))
	f.Add(EncodeEntry(EncodeResultEntry(randResultEntry(rng))))
	f.Add(summaryEnvelope(EncodeResultEntry(randResultEntry(rng))))
	f.Add(EncodeEntry(EncodeResultEntry(&ResultEntry{})))
	f.Add(summaryEnvelope(nil))
	f.Add([]byte("NCC1"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		payload, err := DecodeEntry(data)
		if err != nil {
			return
		}
		if data[4] != entryKind {
			t.Fatalf("envelope of kind %q decoded", data[4])
		}
		e, err := DecodeResultEntry(payload)
		if err != nil {
			return
		}
		payload2, err := DecodeEntry(EncodeEntry(EncodeResultEntry(e)))
		if err != nil {
			t.Fatalf("re-encoded result entry failed envelope decode: %v", err)
		}
		e2, err := DecodeResultEntry(payload2)
		if err != nil {
			t.Fatalf("re-encoded result entry failed payload decode: %v", err)
		}
		if !reflect.DeepEqual(e, e2) {
			t.Fatalf("result entry not canonical:\n first %+v\nsecond %+v", e, e2)
		}
		if !bytes.Equal(payload2, EncodeResultEntry(e2)) {
			t.Fatalf("result encoding not deterministic")
		}
	})
}

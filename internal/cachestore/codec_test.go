package cachestore

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/android"
	"repro/internal/apimodel"
	"repro/internal/jimple"
	"repro/internal/report"
)

// --- random entry generators (seeded: failures reproduce) -------------------

func randString(rng *rand.Rand, max int) string {
	n := rng.Intn(max)
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(rng.Intn(256)) // arbitrary bytes, not just ASCII
	}
	return string(b)
}

func randSig(rng *rand.Rand) jimple.Sig {
	s := jimple.Sig{Class: randString(rng, 20), Name: randString(rng, 12), Ret: randString(rng, 8)}
	for i := rng.Intn(3); i > 0; i-- {
		s.Params = append(s.Params, randString(rng, 8))
	}
	return s
}

func randReport(rng *rand.Rand) report.Report {
	r := report.Report{
		Cause:    report.Cause(randString(rng, 16)),
		Lib:      apimodel.LibKey(randString(rng, 10)),
		Message:  randString(rng, 40),
		Location: report.Loc{Method: randSig(rng), Stmt: rng.Intn(200) - 10},
		Context: report.Context{
			Component:     randString(rng, 20),
			Kind:          android.ComponentKind(rng.Intn(5)),
			KindName:      randString(rng, 10),
			UserInitiated: rng.Intn(2) == 1,
			HTTPMethod:    randString(rng, 5),
		},
		FixSuggestion: randString(rng, 30),
		DefaultCaused: rng.Intn(2) == 1,
	}
	for i := rng.Intn(3); i > 0; i-- {
		r.Impacts = append(r.Impacts, report.Impact(randString(rng, 12)))
	}
	for i := rng.Intn(4); i > 0; i-- {
		r.CallStack = append(r.CallStack, report.Frame{Method: randString(rng, 25), Site: rng.Intn(100) - 2})
	}
	return r
}

func randResultEntry(rng *rand.Rand) *ResultEntry {
	e := &ResultEntry{AppMethods: rng.Intn(500), Sites: rng.Intn(100)}
	for i := rng.Intn(5); i > 0; i-- {
		e.Reports = append(e.Reports, randReport(rng))
	}
	for i := rng.Intn(25); i > 0; i-- {
		e.Counters = append(e.Counters, rng.Int63n(1<<40)-(1<<39))
	}
	for i := rng.Intn(4); i > 0; i-- {
		e.Libs = append(e.Libs, randString(rng, 12))
	}
	return e
}

// summaryEnvelope returns a well-formed envelope of the per-class
// summary kind ('s') the store held before it kept only result entries:
// magic, length and checksum all valid, only the kind byte foreign.
func summaryEnvelope(payload []byte) []byte {
	e := EncodeEntry(payload)
	e[4] = 's'
	return e
}

// --- properties -------------------------------------------------------------

// TestResultEntryRoundTrip: decode(encode(e)) == e for arbitrary entries.
func TestResultEntryRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2016))
	for i := 0; i < 300; i++ {
		e := randResultEntry(rng)
		got, err := DecodeResultEntry(EncodeResultEntry(e))
		if err != nil {
			t.Fatalf("iter %d: decode: %v", i, err)
		}
		if !reflect.DeepEqual(got, e) {
			t.Fatalf("iter %d: round-trip mismatch:\n got %+v\nwant %+v", i, got, e)
		}
	}
}

// TestEnvelopeRejectsEveryBitFlip: the checksummed envelope makes single
// bit flips anywhere in the entry — header or payload — decode errors,
// never silent garbage.
func TestEnvelopeRejectsEveryBitFlip(t *testing.T) {
	rng := rand.New(rand.NewSource(2018))
	payload := EncodeResultEntry(randResultEntry(rng))
	entry := EncodeEntry(payload)
	for pos := 0; pos < len(entry); pos++ {
		for _, mask := range []byte{0x01, 0x80} {
			mangled := append([]byte(nil), entry...)
			mangled[pos] ^= mask
			if got, err := DecodeEntry(mangled); err == nil {
				t.Fatalf("bit flip at %d (mask %#x) decoded: payload=%d bytes", pos, mask, len(got))
			}
		}
	}
}

// TestEnvelopeRejectsSummaryKind: an envelope of the retired summary
// kind is corrupt even though its checksum is intact.
func TestEnvelopeRejectsSummaryKind(t *testing.T) {
	if _, err := DecodeEntry(summaryEnvelope([]byte("summary payload bytes"))); err == nil {
		t.Fatal("summary-kind envelope decoded")
	}
}

// TestEnvelopeRejectsTruncation: every proper prefix fails to decode.
func TestEnvelopeRejectsTruncation(t *testing.T) {
	entry := EncodeEntry([]byte("result payload bytes"))
	for n := 0; n < len(entry); n++ {
		if _, err := DecodeEntry(entry[:n]); err == nil {
			t.Fatalf("truncation to %d of %d bytes decoded", n, len(entry))
		}
	}
}

// TestDecodersRejectPayloadDamage: flipping any byte of the raw payload
// either fails the decode or decodes to a different value — never to a
// false equal. (Most flips fail; varint redundancy can make some decode
// to different values, which the content-addressed envelope catches in
// practice.)
func TestDecodersRejectPayloadDamage(t *testing.T) {
	rng := rand.New(rand.NewSource(2019))
	e := randResultEntry(rng)
	payload := EncodeResultEntry(e)
	for pos := 0; pos < len(payload); pos++ {
		mangled := append([]byte(nil), payload...)
		mangled[pos] ^= 0x55
		got, err := DecodeResultEntry(mangled)
		if err == nil && reflect.DeepEqual(got, e) {
			t.Fatalf("flip at %d decoded equal to the original", pos)
		}
	}
}

// TestEncodeIsDeterministic: identical values encode to identical bytes
// (the cache diffs entries by content hash).
func TestEncodeIsDeterministic(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		a := EncodeResultEntry(randResultEntry(rand.New(rand.NewSource(seed))))
		b := EncodeResultEntry(randResultEntry(rand.New(rand.NewSource(seed))))
		if fmt.Sprintf("%x", a) != fmt.Sprintf("%x", b) {
			t.Fatalf("seed %d: identical entries encoded differently", seed)
		}
	}
}

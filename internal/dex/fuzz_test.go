package dex_test

import (
	"bytes"
	"testing"

	"repro/internal/corpus"
	"repro/internal/dex"
	"repro/internal/jimple"
)

// FuzzDecode drives the binary decoder with untrusted bytes: any input
// must either decode cleanly or return an error — never panic (decode
// panics surface in core as ErrDecode regressions). Valid inputs must
// round-trip canonically. Seeds come from the round-trip tests' encoded
// corpus apps plus structural mutations of them.
func FuzzDecode(f *testing.F) {
	apps, err := corpus.GenerateCorpus(7)
	if err != nil {
		f.Fatal(err)
	}
	for _, a := range apps[:3] {
		f.Add(dex.Encode(a.App.Program))
	}
	prog := jimple.MustParse(`class a.B extends java.lang.Object {
  method run()void {
    local x java.lang.String
    x = "s"
    return
  }
}`)
	seed := dex.Encode(prog)
	f.Add(seed)
	// URL string building: the concatenation chains the endpoint checker's
	// constant propagation walks, with a cleartext scheme and an IP host.
	urlProg := jimple.MustParse(`class u.C extends java.lang.Object {
  method build()java.lang.String {
    local base java.lang.String
    local u java.lang.String
    base = "http://203.0.113.7"
    u = base + "/api?q=%22term%22"
    return u
  }
}`)
	f.Add(dex.Encode(urlProg))
	// Truncations and bit flips of a valid payload reach deep decoder
	// states that random bytes rarely find.
	f.Add(seed[:len(seed)/2])
	flipped := bytes.Clone(seed)
	flipped[len(flipped)/3] ^= 0xff
	f.Add(flipped)
	// Nested invokes with forged argument counts.
	f.Add(dex.ForgedInvokeChain(f, 200, 1000))
	f.Add([]byte{})
	f.Add([]byte("garbage"))

	f.Fuzz(func(t *testing.T, data []byte) {
		prog, err := dex.Decode(data)
		if err != nil {
			return
		}
		// A successfully decoded program must re-encode, and the decoder
		// must accept its own canonical form back.
		re := dex.Encode(prog)
		again, err := dex.Decode(re)
		if err != nil {
			t.Fatalf("re-decode of canonical encoding failed: %v", err)
		}
		if !bytes.Equal(dex.Encode(again), re) {
			t.Fatal("canonical encoding not a fixpoint")
		}
	})
}

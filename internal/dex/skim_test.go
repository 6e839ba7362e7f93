package dex

import (
	"bytes"
	"encoding/binary"
	"os"
	"testing"

	"repro/internal/jimple"
)

// EveryOpProgram parses the fixture that uses every statement opcode and
// value tag the encoding has, throw and caught-exception included. It is
// exported for the package's external tests.
func EveryOpProgram(t testing.TB) *jimple.Program {
	t.Helper()
	src, err := os.ReadFile("testdata/everyop.jimple")
	if err != nil {
		t.Fatal(err)
	}
	p, err := jimple.Parse(string(src))
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// ForgedInvokeChain returns a container whose one body is a chain of
// depth nested static invokes, each claiming na arguments but holding
// only the next invoke, the innermost a null: every byte up to the
// innermost argument is well formed, so a decode fails only after it has
// descended the whole chain. It is exported for the package's external
// tests.
func ForgedInvokeChain(t testing.TB, depth, na int) []byte {
	t.Helper()
	prog := jimple.MustParse(`class t.C extends java.lang.Object {
  method static f(java.lang.Object)void {
    staticinvoke t.C.f(java.lang.Object)void null
    return
  }
}`)
	call := prog.OwnClass("t.C").Methods[0].Body[0].(*jimple.InvokeStmt).Call
	data := Encode(prog)
	collect := newCollector()
	collect.class(prog.OwnClass("t.C"))
	e := &encoder{strings: make(map[string]uint64)}
	for i, s := range collect.sorted() {
		e.strings[s] = uint64(i)
	}
	e.value(call)
	whole := e.buf
	at := bytes.Index(data, whole)
	if at < 0 || bytes.Contains(data[at+1:], whole) {
		t.Fatalf("the invoke's encoding is not unique in the container")
	}
	// One level is the invoke's encoding up to its argument count.
	e.buf = nil
	call.Args = nil
	e.value(call)
	hdr := e.buf[:len(e.buf)-1]
	out := bytes.Clone(data[:at])
	for range depth {
		out = append(out, hdr...)
		out = binary.AppendUvarint(out, uint64(na))
	}
	out = append(out, whole[len(hdr)+1:]...) // the null argument
	return append(out, data[at+len(whole):]...)
}

// TestUvarintMatchesBinary: the skim's uvarint reader accepts exactly
// what binary.Uvarint accepts, with the same value and length, on every
// input of one and two bytes — the encodings its fast paths decode
// themselves — read both alone and from the middle of a longer input,
// and on the boundaries of the fallback to binary.Uvarint.
func TestUvarintMatchesBinary(t *testing.T) {
	check := func(data []byte, pos int) {
		t.Helper()
		// Spare capacity holding a terminating byte catches a fast path
		// that reslices past len(data), which Go allows up to the
		// capacity: it would decode a value binary.Uvarint rejects.
		padded := append(append(make([]byte, 0, len(data)+2), data...), 0x00, 0x00)[:len(data)]
		d := decoder{data: padded, pos: pos}
		v, ok := d.uvarint()
		want, n := binary.Uvarint(data[pos:])
		if ok != (n > 0) || ok && (v != want || d.pos != pos+n) {
			t.Fatalf("uvarint(% x at %d) = %d, ok=%t, pos %d; binary.Uvarint = %d, n=%d",
				data, pos, v, ok, d.pos, want, n)
		}
	}
	for b0 := 0; b0 < 256; b0++ {
		check([]byte{byte(b0)}, 0)
		check([]byte{0x01, byte(b0)}, 1)
		for b1 := 0; b1 < 256; b1++ {
			check([]byte{byte(b0), byte(b1)}, 0)
			check([]byte{0x7f, byte(b0), byte(b1), 0x01}, 1)
		}
	}
	for _, tc := range []struct {
		name string
		data []byte
		pos  int
	}{
		{"no byte left", []byte{0x05}, 1},
		{"one byte left at the end", []byte{0x80, 0x80, 0x05}, 2},
		{"non-canonical zero", []byte{0x80, 0x00}, 0},
		{"continuation byte ends the data", []byte{0x05, 0xff}, 1},
		{"two continuation bytes end the data", []byte{0xff, 0xff}, 0},
		{"three bytes", []byte{0x80, 0x80, 0x01}, 0},
		{"largest value", []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}, 0},
		{"10-byte overflow", []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02}, 0},
		{"11 bytes", []byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x00}, 0},
	} {
		t.Run(tc.name, func(t *testing.T) { check(tc.data, tc.pos) })
	}
}

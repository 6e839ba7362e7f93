package dex

import (
	"encoding/binary"
	"os"
	"reflect"
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

// skimView renders the records of an index in a comparable form.
func skimView(x *Index) [][]string {
	var out [][]string
	for i := range x.recs {
		row := []string{x.Key(int32(i)), x.ClassName(x.recs[i].Class)}
		for _, c := range x.Calls(int32(i)) {
			row = append(row, "call "+x.Sig(c).Key())
		}
		for _, s := range x.Intents(int32(i)) {
			row = append(row, "intent "+s)
		}
		out = append(out, row)
	}
	return out
}

// TestSkimCoversEveryOpcode: the skim parses every opcode and value tag
// itself. A skim that rejected a form the core accepts would silently
// take lazyBody's materializing fallback, so the fallback counter must
// stay at zero and the records must equal the eager walk's.
func TestSkimCoversEveryOpcode(t *testing.T) {
	p := EveryOpProgram(t)
	data := Encode(p)
	l, err := DecodeLazy(data)
	if err != nil {
		t.Fatal(err)
	}
	if l.fallbacks != 0 {
		t.Fatalf("skim fell back to the materializing core %d times", l.fallbacks)
	}
	eager, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	got, want := skimView(l.Index()), skimView(IndexOf(eager))
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("skim records differ from eager:\nlazy:  %q\neager: %q", got, want)
	}
	if len(got) != 3 {
		t.Fatalf("%d records, want 3 (util, run, onCreate): %q", len(got), got)
	}
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

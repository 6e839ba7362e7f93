package dex

import (
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

package dex

import (
	"bytes"
	"runtime"
	"testing"
	"testing/quick"

	"repro/internal/android"
	"repro/internal/jimple"
)

const sampleSrc = `class com.app.Main extends android.app.Activity implements android.view.View$OnClickListener {
  field mCount int
  field static sName java.lang.String
  method onCreate(android.os.Bundle)void {
    local self com.app.Main
    local c com.turbomanage.httpclient.BasicHttpClient
    local r com.turbomanage.httpclient.HttpResponse
    local b java.lang.String
    local e java.io.IOException
    self = this com.app.Main
    L0:
    c = new com.turbomanage.httpclient.BasicHttpClient
    specialinvoke c com.turbomanage.httpclient.BasicHttpClient.<init>()void
    virtualinvoke c com.turbomanage.httpclient.BasicHttpClient.setMaxRetries(int)void 5
    r = virtualinvoke c com.turbomanage.httpclient.BasicHttpClient.get(java.lang.String)com.turbomanage.httpclient.HttpResponse "http://example.com/a b"
    L1:
    if r == null goto L3
    b = virtualinvoke r com.turbomanage.httpclient.HttpResponse.getBodyAsString()java.lang.String
    field(self,com.app.Main,mCount) = 1
    goto L3
    L2:
    e = caught
    nop
    L3:
    return
    trap L0 L1 L2 java.io.IOException
  }
  method abstract helper(int,java.lang.String)boolean
  method static util()int {
    local x int
    local y int
    x = 2
    y = x * 21
    return y
  }
}`

func sampleProgram(t *testing.T) *jimple.Program {
	t.Helper()
	p := jimple.MustParse(sampleSrc)
	if err := p.Validate(); err != nil {
		t.Fatalf("sample invalid: %v", err)
	}
	return p
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	p := sampleProgram(t)
	data := Encode(p)
	got, err := Decode(data)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if err := got.Validate(); err != nil {
		t.Fatalf("decoded program invalid: %v", err)
	}
	// Textual forms must match exactly.
	if jimple.Print(got) != jimple.Print(p) {
		t.Errorf("round trip changed the program:\n--- original ---\n%s\n--- decoded ---\n%s",
			jimple.Print(p), jimple.Print(got))
	}
}

func TestEncodeDeterministic(t *testing.T) {
	p := sampleProgram(t)
	a := Encode(p)
	b := Encode(p)
	if !bytes.Equal(a, b) {
		t.Error("Encode is not deterministic")
	}
}

func TestEncodeFrameworkRoundTrip(t *testing.T) {
	fw := android.Framework()
	got, err := Decode(Encode(fw))
	if err != nil {
		t.Fatalf("Decode framework: %v", err)
	}
	if jimple.Print(got) != jimple.Print(fw) {
		t.Error("framework round trip mismatch")
	}
}

func TestDecodeRejectsBadMagic(t *testing.T) {
	if _, err := Decode([]byte("NOPE")); err == nil {
		t.Error("bad magic accepted")
	}
	if _, err := Decode(nil); err == nil {
		t.Error("empty input accepted")
	}
}

func TestDecodeRejectsBadVersion(t *testing.T) {
	data := Encode(sampleProgram(t))
	data[4] = 99 // version varint byte
	if _, err := Decode(data); err == nil {
		t.Error("bad version accepted")
	}
}

func TestDecodeRejectsTruncation(t *testing.T) {
	data := Encode(sampleProgram(t))
	for _, cut := range []int{5, len(data) / 4, len(data) / 2, len(data) - 1} {
		if _, err := Decode(data[:cut]); err == nil {
			t.Errorf("truncation at %d accepted", cut)
		}
	}
}

func TestDecodeRejectsTrailingBytes(t *testing.T) {
	data := Encode(sampleProgram(t))
	data = append(data, 0xFF)
	if _, err := Decode(data); err == nil {
		t.Error("trailing bytes accepted")
	}
}

// Property: single-byte corruption never panics; it either errors or
// yields some program (possibly semantically different — the APK layer's
// CRC catches corruption; this layer only guarantees memory safety).
func TestQuickDecodeCorruptionSafety(t *testing.T) {
	data := Encode(sampleProgram(t))
	f := func(posRaw uint16, val byte) bool {
		pos := int(posRaw) % len(data)
		mut := append([]byte(nil), data...)
		mut[pos] = val
		defer func() {
			if recover() != nil {
				t.Errorf("Decode panicked with corruption at %d=%d", pos, val)
			}
		}()
		_, _ = Decode(mut)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestEncodeSizeReasonable(t *testing.T) {
	p := sampleProgram(t)
	data := Encode(p)
	text := len(jimple.Print(p))
	if len(data) == 0 {
		t.Fatal("empty encoding")
	}
	// The pooled binary form should not balloon beyond the text form.
	if len(data) > 2*text {
		t.Errorf("encoding suspiciously large: %d bytes vs %d text", len(data), text)
	}
}

// TestDecodeForgedArgCountsBounded: a chain of nested invokes whose
// argument counts are forged fails to decode, eagerly and through the
// skim's fallback to the eager core, without allocating in proportion
// to the forged counts. Presizing each level's arguments from its count
// would hold about (bytes left) x 16 B per level of the chain at once.
func TestDecodeForgedArgCountsBounded(t *testing.T) {
	const depth, na = 3000, 16000
	data := ForgedInvokeChain(t, depth, na)
	if len(data) < na {
		t.Fatalf("container of %d bytes cannot carry a count of %d", len(data), na)
	}
	for _, tc := range []struct {
		name   string
		decode func() error
	}{
		{"Decode", func() error { _, err := Decode(data); return err }},
		{"DecodeLazy", func() error { _, err := DecodeLazy(data); return err }},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := tc.decode()
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Fatalf("%s accepted a chain of forged argument counts", tc.name)
		}
		if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(8*len(data)); got > limit {
			t.Errorf("%s of a %d-byte container allocated %d B, want at most %d", tc.name, len(data), got, limit)
		}
	}
}

package apk

import (
	"bytes"
	"crypto/sha256"
	"path/filepath"
	"testing"
	"testing/quick"

	"repro/internal/android"
	"repro/internal/jimple"
)

func sampleApp(t *testing.T) *App {
	t.Helper()
	prog := jimple.MustParse(`class com.x.Main extends android.app.Activity {
  method onCreate(android.os.Bundle)void {
    local c com.turbomanage.httpclient.BasicHttpClient
    c = new com.turbomanage.httpclient.BasicHttpClient
    specialinvoke c com.turbomanage.httpclient.BasicHttpClient.<init>()void
    return
  }
}`)
	man := &android.Manifest{Package: "com.x", Activities: []string{"com.x.Main"}}
	man.Normalize()
	return &App{Manifest: man, Program: prog}
}

func TestRoundTrip(t *testing.T) {
	app := sampleApp(t)
	data, err := Encode(app)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	got, err := Decode(data)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if got.Manifest.Encode() != app.Manifest.Encode() {
		t.Error("manifest mismatch after round trip")
	}
	if jimple.Print(got.Program) != jimple.Print(app.Program) {
		t.Error("program mismatch after round trip")
	}
}

func TestReadWrite(t *testing.T) {
	app := sampleApp(t)
	var buf bytes.Buffer
	if err := Write(&buf, app); err != nil {
		t.Fatalf("Write: %v", err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if got.Manifest.Package != "com.x" {
		t.Errorf("package: %q", got.Manifest.Package)
	}
}

func TestFileRoundTrip(t *testing.T) {
	app := sampleApp(t)
	path := filepath.Join(t.TempDir(), "app.apk")
	if err := WriteFile(path, app); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	if got.Program.NumClasses() != app.Program.NumClasses() {
		t.Error("class count mismatch")
	}
	if _, err := ReadFile(filepath.Join(t.TempDir(), "missing.apk")); err == nil {
		t.Error("missing file should error")
	}
}

func TestEncodeRejectsIncompleteApp(t *testing.T) {
	if _, err := Encode(&App{}); err == nil {
		t.Error("nil manifest accepted")
	}
	man := &android.Manifest{Package: "p"}
	if _, err := Encode(&App{Manifest: man}); err == nil {
		t.Error("nil program accepted")
	}
	if _, err := Encode(&App{Manifest: &android.Manifest{}, Program: jimple.NewProgram()}); err == nil {
		t.Error("invalid manifest accepted")
	}
}

func TestDecodeRejectsCorruption(t *testing.T) {
	app := sampleApp(t)
	data, err := Encode(app)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a byte inside the dex payload: the CRC must catch it.
	mut := append([]byte(nil), data...)
	mut[len(mut)-2] ^= 0xFF
	if _, err := Decode(mut); err == nil {
		t.Error("payload corruption not detected")
	}
	if _, err := Decode(data[:10]); err == nil {
		t.Error("truncated container accepted")
	}
	if _, err := Decode([]byte("not an apk at all")); err == nil {
		t.Error("garbage accepted")
	}
	withTrailing := append(append([]byte(nil), data...), 0)
	if _, err := Decode(withTrailing); err == nil {
		t.Error("trailing bytes accepted")
	}
}

// Property: any single-byte corruption is either detected or decodes into
// a structurally valid app — never a panic, and practically always caught
// by the CRC.
func TestQuickCorruptionDetected(t *testing.T) {
	app := sampleApp(t)
	data, err := Encode(app)
	if err != nil {
		t.Fatal(err)
	}
	detected, survived := 0, 0
	f := func(posRaw uint16, xor byte) bool {
		if xor == 0 {
			return true
		}
		pos := int(posRaw) % len(data)
		mut := append([]byte(nil), data...)
		mut[pos] ^= xor
		got, err := Decode(mut)
		if err != nil {
			detected++
			return true
		}
		survived++
		return got.Program != nil && got.Manifest != nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
	if detected == 0 {
		t.Error("no corruption was ever detected — CRC seems inert")
	}
}

// TestDigestStableAndDiscriminating: Digest is the app component of the
// persistent scan cache's result key. A decoded app's digest is the hash
// of the bytes it was decoded from (decode does not re-encode), stable
// across calls; different apps digest differently; and an app built in
// memory, which has no container bytes, has no digest.
func TestDigestStableAndDiscriminating(t *testing.T) {
	digestOf := func(app *App) [sha256.Size]byte {
		t.Helper()
		data, err := Encode(app)
		if err != nil {
			t.Fatalf("Encode: %v", err)
		}
		decoded, err := DecodeLazy(data)
		if err != nil {
			t.Fatalf("DecodeLazy: %v", err)
		}
		d1, err := decoded.Digest()
		if err != nil {
			t.Fatalf("Digest: %v", err)
		}
		d2, err := decoded.Digest()
		if err != nil {
			t.Fatalf("Digest (memoized): %v", err)
		}
		if d1 != d2 || d1 != sha256.Sum256(data) {
			t.Fatalf("Digest is not stably the hash of the container bytes")
		}
		return d1
	}
	app := sampleApp(t)
	d := digestOf(app)
	if again := digestOf(sampleApp(t)); again != d {
		t.Fatalf("the same app digests differently across encodes")
	}
	other := sampleApp(t)
	other.Manifest.Package = "com.y"
	other.Manifest.Normalize()
	if digestOf(other) == d {
		t.Fatalf("distinct apps share a digest")
	}
	if _, err := app.Digest(); err == nil {
		t.Fatalf("an app built in memory has a digest; want an error")
	}
}

// TestDigestHashesOnFirstUse: opening a container hashes nothing — a
// cache-off scan never asks for the digest — and the first Digest call
// hashes the bytes as read, once, whichever open read them.
func TestDigestHashesOnFirstUse(t *testing.T) {
	data, err := Encode(sampleApp(t))
	if err != nil {
		t.Fatal(err)
	}
	hashes := 0
	defer func(h func([]byte) [sha256.Size]byte) { hashContainer = h }(hashContainer)
	hashContainer = func(b []byte) [sha256.Size]byte {
		hashes++
		return sha256.Sum256(b)
	}
	for name, open := range map[string]func([]byte) (*App, error){"Decode": Decode, "DecodeLazy": DecodeLazy} {
		hashes = 0
		app, err := open(data)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if hashes != 0 {
			t.Fatalf("%s hashed the container %d times", name, hashes)
		}
		for call := 1; call <= 2; call++ {
			d, err := app.Digest()
			if err != nil {
				t.Fatalf("%s: Digest: %v", name, err)
			}
			if d != sha256.Sum256(data) {
				t.Fatalf("%s: Digest call %d is not the hash of the container bytes", name, call)
			}
			if hashes != 1 {
				t.Fatalf("%s: after Digest call %d the container was hashed %d times, want 1", name, call, hashes)
			}
		}
	}
}

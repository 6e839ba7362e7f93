// Package apk defines the application container NChecker scans: a
// sectioned, checksummed binary file holding the app's manifest and its
// dex-encoded code — the stand-in for the APK zip the real tool consumes.
// The container is what cmd/nchecker reads from disk and what the corpus
// generator writes, so the full binary pipeline
// (generate → serialize → parse → analyze) is exercised end to end.
package apk

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync"

	"repro/internal/android"
	"repro/internal/dex"
	"repro/internal/jimple"
)

// magic identifies the container format.
var magic = []byte("GAPK\x01\n")

// Section names.
const (
	sectionManifest = "AndroidManifest"
	sectionDex      = "classes.dex"
)

// maxSectionSize bounds a single section (defensive parsing).
const maxSectionSize = 1 << 30

// App is a parsed application: its manifest plus its code. Apps are
// always handled by pointer; the embedded digest memoization must not be
// copied.
type App struct {
	Manifest *android.Manifest
	Program  *jimple.Program

	// Lazy is non-nil for apps opened by DecodeLazy: the dex payload has
	// been skimmed (headers, the skim index, body spans) but no method
	// bodies are decoded yet. Program aliases Lazy.Program(); a scan
	// materializes the demanded classes, and dynamic validation
	// everything.
	Lazy *dex.Lazy

	// digest memoizes Digest(): apps decoded from container bytes carry
	// the hash of those bytes, in-memory apps hash their canonical
	// encoding on first use.
	digestOnce sync.Once
	digest     [sha256.Size]byte
	digestErr  error
}

// Digest returns the SHA-256 content identity of the app — the hash of
// its container bytes — computed once per App. It is the app component of
// the persistent scan cache's keys (internal/cachestore): any change to
// the manifest or the dex payload changes the digest. For an app parsed
// by Decode the digest covers the bytes as read; for an app built in
// memory it covers the canonical Encode output.
func (a *App) Digest() ([sha256.Size]byte, error) {
	a.digestOnce.Do(func() {
		data, err := Encode(a)
		if err != nil {
			a.digestErr = err
			return
		}
		a.digest = sha256.Sum256(data)
	})
	return a.digest, a.digestErr
}

// Encode serializes the app to container bytes.
func Encode(app *App) ([]byte, error) {
	if app.Manifest == nil {
		return nil, fmt.Errorf("apk: app has no manifest")
	}
	if err := app.Manifest.Validate(); err != nil {
		return nil, fmt.Errorf("apk: %w", err)
	}
	if app.Program == nil {
		return nil, fmt.Errorf("apk: app has no program")
	}
	buf := append([]byte(nil), magic...)
	buf = binary.AppendUvarint(buf, 2) // section count
	buf = appendSection(buf, sectionManifest, []byte(app.Manifest.Encode()))
	buf = appendSection(buf, sectionDex, dex.Encode(app.Program))
	return buf, nil
}

func appendSection(buf []byte, name string, content []byte) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(name)))
	buf = append(buf, name...)
	buf = binary.AppendUvarint(buf, uint64(len(content)))
	buf = binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(content))
	return append(buf, content...)
}

// Decode parses container bytes, verifying section checksums.
func Decode(data []byte) (*App, error) {
	man, dexBytes, err := decodeSections(data)
	if err != nil {
		return nil, err
	}
	prog, err := dex.Decode(dexBytes)
	if err != nil {
		return nil, fmt.Errorf("apk: %w", err)
	}
	app := &App{Manifest: man, Program: prog}
	// Seed the content digest from the bytes actually read, so scanning
	// from disk never pays a re-encode to key the cache.
	app.digestOnce.Do(func() { app.digest = sha256.Sum256(data) })
	return app, nil
}

// DecodeLazy parses container bytes like Decode but defers the dex method
// bodies: the returned App carries a skeleton Program plus the Lazy handle
// that materializes classes on demand. It accepts and rejects exactly the
// inputs Decode does, and the seeded digest is identical, so the two open
// paths share cache entries.
func DecodeLazy(data []byte) (*App, error) {
	man, dexBytes, err := decodeSections(data)
	if err != nil {
		return nil, err
	}
	l, err := dex.DecodeLazy(dexBytes)
	if err != nil {
		return nil, fmt.Errorf("apk: %w", err)
	}
	app := &App{Manifest: man, Program: l.Program(), Lazy: l}
	app.digestOnce.Do(func() { app.digest = sha256.Sum256(data) })
	return app, nil
}

// decodeSections validates the container framing and returns the decoded
// manifest and the raw dex payload — everything Decode and DecodeLazy
// share before they diverge on body decoding.
func decodeSections(data []byte) (*android.Manifest, []byte, error) {
	if len(data) < len(magic) || string(data[:len(magic)]) != string(magic) {
		return nil, nil, fmt.Errorf("apk: bad magic")
	}
	pos := len(magic)
	nsec, n := binary.Uvarint(data[pos:])
	if n <= 0 || nsec > 16 {
		return nil, nil, fmt.Errorf("apk: bad section count")
	}
	pos += n
	sections := make(map[string][]byte, nsec)
	for i := uint64(0); i < nsec; i++ {
		name, content, next, err := readSection(data, pos)
		if err != nil {
			return nil, nil, err
		}
		if _, dup := sections[name]; dup {
			return nil, nil, fmt.Errorf("apk: duplicate section %q", name)
		}
		sections[name] = content
		pos = next
	}
	if pos != len(data) {
		return nil, nil, fmt.Errorf("apk: %d trailing bytes", len(data)-pos)
	}
	manBytes, ok := sections[sectionManifest]
	if !ok {
		return nil, nil, fmt.Errorf("apk: missing %s section", sectionManifest)
	}
	dexBytes, ok := sections[sectionDex]
	if !ok {
		return nil, nil, fmt.Errorf("apk: missing %s section", sectionDex)
	}
	man, err := android.DecodeManifest(string(manBytes))
	if err != nil {
		return nil, nil, fmt.Errorf("apk: %w", err)
	}
	return man, dexBytes, nil
}

func readSection(data []byte, pos int) (name string, content []byte, next int, err error) {
	nameLen, n := binary.Uvarint(data[pos:])
	if n <= 0 || nameLen > 255 {
		return "", nil, 0, fmt.Errorf("apk: bad section name length")
	}
	pos += n
	if pos+int(nameLen) > len(data) {
		return "", nil, 0, fmt.Errorf("apk: truncated section name")
	}
	name = string(data[pos : pos+int(nameLen)])
	pos += int(nameLen)
	size, n := binary.Uvarint(data[pos:])
	if n <= 0 || size > maxSectionSize {
		return "", nil, 0, fmt.Errorf("apk: bad section size for %q", name)
	}
	pos += n
	if pos+4 > len(data) {
		return "", nil, 0, fmt.Errorf("apk: truncated checksum for %q", name)
	}
	sum := binary.LittleEndian.Uint32(data[pos:])
	pos += 4
	if pos+int(size) > len(data) {
		return "", nil, 0, fmt.Errorf("apk: truncated section %q", name)
	}
	content = data[pos : pos+int(size)]
	if crc32.ChecksumIEEE(content) != sum {
		return "", nil, 0, fmt.Errorf("apk: checksum mismatch in section %q", name)
	}
	return name, content, pos + int(size), nil
}

// Write streams the encoded app to w.
func Write(w io.Writer, app *App) error {
	data, err := Encode(app)
	if err != nil {
		return err
	}
	_, err = w.Write(data)
	return err
}

// Read parses an app from r.
func Read(r io.Reader) (*App, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("apk: %w", err)
	}
	return Decode(data)
}

// WriteFile writes the app to path.
func WriteFile(path string, app *App) error {
	data, err := Encode(app)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// ReadFile parses the app at path.
func ReadFile(path string) (*App, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("apk: %w", err)
	}
	return Decode(data)
}

// ReadFileLazy parses the app at path without decoding method bodies; see
// DecodeLazy.
func ReadFileLazy(path string) (*App, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("apk: %w", err)
	}
	return DecodeLazy(data)
}

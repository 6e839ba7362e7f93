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

	// Lazy is the handle of an app opened by DecodeLazy, the way every
	// scan opens one: the dex payload has been skimmed (headers, the skim
	// index, body spans) but no method bodies are decoded yet. Program
	// aliases Lazy.Program(); a scan materializes the demanded classes,
	// and dynamic validation and Encode everything. It is nil for an app
	// built in memory or opened by Decode.
	Lazy *dex.Lazy

	// src holds the container bytes an app was decoded from, until
	// Digest hashes them; nil for an app built in memory.
	src []byte
	// buf is the pooled buffer ReadFileLazy read the container into,
	// which src and the Lazy's index alias until Release returns it.
	buf *[]byte

	// digest memoizes Digest(): the hash of src, on first use.
	digestOnce sync.Once
	digest     [sha256.Size]byte
	digestErr  error
}

// hashContainer is the digest's hash; tests count its calls.
var hashContainer = sha256.Sum256

// Digest returns the SHA-256 content identity of the app — the hash of
// the container bytes it was decoded from (by Decode or DecodeLazy) —
// computed on first use, once per App. It is the app component of the
// persistent scan cache's keys (internal/cachestore): any change to the
// manifest or the dex payload changes the digest. Every scan runs on an
// opened container, so it always has bytes to hash; an app built in
// memory has none and gets an error. A scan with the cache off never
// asks, so it hashes nothing.
func (a *App) Digest() ([sha256.Size]byte, error) {
	a.digestOnce.Do(func() {
		if a.src == nil {
			a.digestErr = fmt.Errorf("apk: app was not decoded from container bytes")
			return
		}
		a.digest = hashContainer(a.src)
		a.src = nil
	})
	return a.digest, a.digestErr
}

// Encode serializes the app to container bytes. A lazily opened app has
// its bodies materialized first (Lazy.MaterializeAll), so it encodes to
// the bytes it was opened from; like MaterializeAll, that may not run
// concurrently with another Encode, scan or lookup of the same app.
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
	if err := app.Lazy.MaterializeAll(); err != nil {
		return nil, fmt.Errorf("apk: %w", err)
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
	// Digest hashes the bytes actually read, so scanning from disk never
	// pays a re-encode to key the cache.
	return &App{Manifest: man, Program: prog, src: data}, nil
}

// DecodeLazy parses container bytes like Decode but defers the dex class
// members and method bodies: the returned App carries a Program of class
// headers, whose members are decoded on first lookup, plus the Lazy
// handle that materializes classes' bodies on demand. It accepts and
// rejects exactly the inputs Decode does, and the digest is identical, so
// the two open paths share cache entries.
func DecodeLazy(data []byte) (*App, error) {
	man, dexBytes, err := decodeSections(data)
	if err != nil {
		return nil, err
	}
	l, err := dex.DecodeLazy(dexBytes)
	if err != nil {
		return nil, fmt.Errorf("apk: %w", err)
	}
	return &App{Manifest: man, Program: l.Program(), Lazy: l, src: data}, nil
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

// Write streams the encoded app (Encode) to w.
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

// WriteFile writes the encoded app (Encode) to path.
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
// DecodeLazy. The container is read into a pooled buffer, which Release
// returns: a caller done with the app releases it, so the next read
// reuses the buffer.
func ReadFileLazy(path string) (*App, error) {
	buf, err := readPooled(path)
	if err != nil {
		return nil, fmt.Errorf("apk: %w", err)
	}
	app, err := DecodeLazy(*buf)
	if err != nil {
		// The decode errors are formatted strings: nothing aliases buf.
		bufPool.Put(buf)
		return nil, err
	}
	app.buf = buf
	return app, nil
}

// bufPool holds the container buffers of released apps.
var bufPool sync.Pool

// readPooled reads the file at path into a buffer from bufPool, sized by
// the file's Stat: one read fills it, and the buffer grows only if the
// file grew since.
func readPooled(path string) (*[]byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	size := 0
	if fi, err := f.Stat(); err == nil && fi.Mode().IsRegular() {
		size = int(fi.Size())
	}
	buf, _ := bufPool.Get().(*[]byte)
	if buf == nil {
		buf = new([]byte)
	}
	// One byte of room past the size lets the read that meets EOF
	// succeed without growing the buffer.
	data := (*buf)[:0]
	if cap(data) < size+1 {
		data = make([]byte, 0, size+1)
	}
	for {
		if len(data) == cap(data) {
			data = append(data, 0)[:len(data)]
		}
		n, err := f.Read(data[len(data):cap(data)])
		data = data[:len(data)+n]
		if err == io.EOF {
			break
		}
		if err != nil {
			*buf = data
			bufPool.Put(buf)
			return nil, err
		}
	}
	*buf = data
	return buf, nil
}

// Release gives back the memory the app's open holds only for the scan:
// the Lazy's index arrays (dex.Lazy.Release) and the buffer ReadFileLazy
// read the container into. The app's strings, signatures and
// already-decoded classes stay valid, but a lookup that would decode
// panics, and Digest fails unless it ran before. Release is idempotent
// and may not run concurrently with any other use of the app.
func (a *App) Release() {
	a.Lazy.Release()
	a.src = nil
	if a.buf != nil {
		bufPool.Put(a.buf)
		a.buf = nil
	}
}

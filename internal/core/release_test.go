package core

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/apk"
	"repro/internal/arena"
	"repro/internal/checkers"
	"repro/internal/corpus"
	"repro/internal/report"
)

// writeContainers writes containers to files, for the scans that read
// their container into a pooled buffer (ScanFile).
func writeContainers(t *testing.T, containers [][]byte) (paths []string) {
	t.Helper()
	dir := t.TempDir()
	for i, data := range containers {
		p := filepath.Join(dir, fmt.Sprintf("app%d.apk", i))
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
		paths = append(paths, p)
	}
	return paths
}

// largerContainer returns the second determinism app padded past the
// padded determinism container: an app no other scan opens, whose open
// fills arrays and a buffer large enough for any later open to reuse.
func largerContainer(t *testing.T, containers [][]byte) []byte {
	t.Helper()
	app, err := apk.Decode(containers[1])
	if err != nil {
		t.Fatal(err)
	}
	corpus.AddPadding(app, 120)
	data, err := apk.Encode(app)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// renderBoth renders reports as the CLI's text and JSON outputs do.
func renderBoth(t *testing.T, reports []report.Report) (string, string) {
	t.Helper()
	js, err := json.Marshal(reports)
	if err != nil {
		t.Fatal(err)
	}
	return report.RenderAll(reports), string(js)
}

// TestConcurrentReleasedScansKeepResults: a scan gives back what it
// opened and what it analyzed — the index arrays, the container buffer,
// the decoded classes and bodies, the report scratch, the call graph and
// the per-method kernels go back to pools for later scans — so nothing
// its Result holds may live in that memory. In a test binary the pools
// hold junk (checkers and dex fill recycled memory with it), so a Result
// that aliases them reads junk. The Results of scan A, of the largest
// container, are kept — a plain scan, a -validate scan and a scan that
// wrote the cache — while two goroutines run scans of other containers
// from files and from bytes, scans of a malformed container, canceled
// scans and -validate scans, all drawing on and refilling the pools. A
// must then render, as text and as JSON, exactly what it did when it
// returned, a warm scan of it from the cache the same text, and every
// other scan its own reference bytes.
func TestConcurrentReleasedScansKeepResults(t *testing.T) {
	if testing.Short() {
		t.Skip("concurrency storm")
	}
	containers := determinismContainers(t)
	paths := writeContainers(t, containers)
	pathA := writeContainers(t, [][]byte{largerContainer(t, containers)})[0]
	nc := NewWithOptions(Options{Workers: 2})
	validating := nc.WithOptions(Options{Workers: 2, Validate: true})
	want := make([]string, len(paths))
	wantValidated := make([]string, len(paths))
	for i, data := range containers {
		var err error
		if want[i], err = scanBytesRendered(NewWithOptions(Options{}), data); err != nil {
			t.Fatalf("container %d: reference scan: %v", i, err)
		}
		if wantValidated[i], err = scanBytesRendered(NewWithOptions(Options{Validate: true}), data); err != nil {
			t.Fatalf("container %d: reference -validate scan: %v", i, err)
		}
	}
	malformed := truncatedDex(t, containers[0])

	resA, err := nc.ScanFile(pathA)
	if err != nil || resA.Incomplete || len(resA.Reports) == 0 {
		t.Fatalf("scan A: err=%v; the check needs a complete scan with warnings", err)
	}
	textA, jsonA := renderBoth(t, resA.Reports)
	resAV, err := validating.ScanFile(pathA)
	if err != nil || resAV.Incomplete {
		t.Fatalf("scan A -validate: err=%v", err)
	}
	textAV, jsonAV := renderBoth(t, resAV.Reports)
	caching := nc.WithOptions(Options{Workers: 2, CacheDir: t.TempDir(), CacheMode: CacheRW})
	resAC, err := caching.ScanFile(pathA)
	if err != nil || resAC.Incomplete || resAC.Diagnostics.Cache.StorePuts == 0 {
		t.Fatalf("scan A with the cache: err=%v, or it wrote no entry", err)
	}
	textAC, jsonAC := renderBoth(t, resAC.Reports)
	if textAC != textA {
		t.Fatal("scan A with the cache renders differently from without")
	}

	errs := make(chan error, 2)
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			errs <- releasedScanStorm(nc, validating, g, paths, containers, malformed, want, wantValidated)
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
	for _, kept := range []struct {
		name       string
		res        *Result
		text, json string
	}{
		{"plain", resA, textA, jsonA},
		{"-validate", resAV, textAV, jsonAV},
		{"cache write", resAC, textAC, jsonAC},
	} {
		if strings.Contains(kept.text+kept.json, arena.Junk) {
			t.Errorf("scan A's %s Result reads recycled memory:\n%s", kept.name, kept.text)
		}
		if text, js := renderBoth(t, kept.res.Reports); text != kept.text || js != kept.json {
			t.Errorf("scan A's kept %s Result renders differently after later scans reused the pools:\n--- text then ---\n%s--- text now ---\n%s", kept.name, kept.text, text)
		}
	}
	warm, err := caching.ScanFile(pathA)
	if err != nil || warm.Diagnostics.Cache.StoreHits != 1 {
		t.Fatalf("warm scan A: err=%v, or it missed the cache", err)
	}
	if got := report.RenderAll(warm.Reports); got != textA {
		t.Errorf("warm scan A renders differently from the scan that wrote its entry")
	}
}

// releasedScanStorm is one goroutine of the storm: three passes over the
// containers, starting at a different one per goroutine and pass.
func releasedScanStorm(nc, validating *Checker, g int, paths []string, containers [][]byte, malformed []byte, want, wantValidated []string) error {
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	for pass := 0; pass < 3; pass++ {
		for k := range paths {
			i := (g + pass + k) % len(paths)
			res, err := nc.ScanFile(paths[i])
			if err != nil {
				return fmt.Errorf("goroutine %d, file %d: %v", g, i, err)
			}
			if got := report.RenderAll(res.Reports); got != want[i] {
				return fmt.Errorf("goroutine %d, file %d: rendered different bytes (%d vs %d)", g, i, len(got), len(want[i]))
			}
			if got, err := scanBytesRendered(nc, containers[i]); err != nil || got != want[i] {
				return fmt.Errorf("goroutine %d, container %d: err=%v, or rendered different bytes", g, i, err)
			}
			if err := scanTruncated(nc, malformed); err != nil {
				return fmt.Errorf("goroutine %d: %v", g, err)
			}
			res, err = nc.ScanFileContext(canceled, paths[i])
			if err != nil || !res.Incomplete {
				return fmt.Errorf("goroutine %d, file %d: canceled scan: err=%v, incomplete=%v", g, i, err, res != nil && res.Incomplete)
			}
		}
		i := (g + pass) % len(paths)
		res, err := validating.ScanFile(paths[i])
		if err != nil || res.Incomplete {
			return fmt.Errorf("goroutine %d, file %d: -validate scan: err=%v", g, i, err)
		}
		if got := report.RenderAll(res.Reports); got != wantValidated[i] {
			return fmt.Errorf("goroutine %d, file %d: -validate scan rendered different bytes", g, i)
		}
	}
	return nil
}

// TestReleaseIsFinalAndIdempotent pins the two rules of App.Release: a
// lookup that would decode after it panics with a message naming the
// release, instead of reading recycled memory (the class memo went back
// too, but NumClasses still answers); and a second Release is harmless —
// it gives nothing back twice, so two later opens never share an index
// array, a decoder chunk, a class memo or a container buffer.
func TestReleaseIsFinalAndIdempotent(t *testing.T) {
	containers := determinismContainers(t)
	paths := writeContainers(t, containers)
	app, err := apk.ReadFileLazy(paths[0])
	if err != nil {
		t.Fatal(err)
	}
	class := app.Lazy.Index().ClassName(0)
	app.Program.OwnClass(class) // a built class, its memo slot filled
	numClasses := app.Program.NumClasses()
	app.Release()
	app.Release()
	if got := app.Program.NumClasses(); got != numClasses {
		t.Errorf("NumClasses after Release = %d, want %d", got, numClasses)
	}
	for name, lookup := range map[string]func(){
		"member lookup": func() { app.Program.OwnClass(class) },
		"Materialize":   func() { app.Lazy.Materialize(class) },
		"Index":         func() { app.Lazy.Index() },
	} {
		msg := func() (msg string) {
			defer func() { msg = fmt.Sprint(recover()) }()
			lookup()
			return ""
		}()
		if !strings.Contains(msg, "after Lazy.Release") {
			t.Errorf("%s after Release: panic %q, want one naming the release", name, msg)
		}
	}

	// Two opens after the double Release, both held: had it given the
	// arrays or the buffer back twice, the second open would overwrite
	// the first's.
	reg := New().Registry()
	var opened []*apk.App
	for i := range paths[:2] {
		app, err := apk.ReadFileLazy(paths[i])
		if err != nil {
			t.Fatal(err)
		}
		opened = append(opened, app)
	}
	for i, app := range opened {
		if got, err := app.Digest(); err != nil || got != sha256.Sum256(containers[i]) {
			t.Errorf("app %d: digest %x (err %v) is not its container's", i, got, err)
		}
		res := checkers.Analyze(app, reg, Options{})
		want, err := scanBytesRendered(New(), containers[i])
		if err != nil {
			t.Fatal(err)
		}
		if got := report.RenderAll(res.Reports); got != want {
			t.Errorf("app %d: rendered different bytes after a double Release", i)
		}
	}
}

package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/apk"
	"repro/internal/corpus"
	"repro/internal/dex"
	"repro/internal/report"
)

// These tests pin the allocation-discipline invariants of DESIGN.md §13:
// interned strings, pooled digest writers, the lazy open's pooled skim
// scratch and reused per-method scratch are all scoped so that no state
// can leak from one scan into the next.
// The oracle is bytes: a scan's rendered reports must not depend on what
// the process scanned before, which the helper-process pattern (see
// cachestore/crossproc_test.go) proves against genuinely fresh processes.

const (
	determinismAppEnv = "NCHECKER_DETERMINISM_APP"
	determinismOutEnv = "NCHECKER_DETERMINISM_OUT"
	// determinismBytesEnv, when set, makes the helper scan the app's
	// container (determinismContainers) through ScanBytes instead.
	determinismBytesEnv = "NCHECKER_DETERMINISM_BYTES"
)

// determinismApps returns the two corpus apps the cross-process oracle
// scans — adjacent generated apps with different library mixes, built
// deterministically so parent and helper construct identical inputs.
func determinismApps(t *testing.T) []*corpus.CorpusApp {
	t.Helper()
	apps, err := corpus.GenerateCorpus(7)
	if err != nil {
		t.Fatal(err)
	}
	return []*corpus.CorpusApp{apps[20], apps[21]}
}

// determinismContainers returns the containers the byte-path oracle
// scans: the determinismApps encoded, then the first of them padded with
// inert classes, so the lazy open's pooled skim scratch grows and is
// reused across apps of different sizes.
func determinismContainers(t *testing.T) [][]byte {
	t.Helper()
	var out [][]byte
	for _, a := range determinismApps(t) {
		data, err := apk.Encode(a.App)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, data)
	}
	padded, err := apk.Decode(out[0])
	if err != nil {
		t.Fatal(err)
	}
	corpus.AddPadding(padded, 60)
	data, err := apk.Encode(padded)
	if err != nil {
		t.Fatal(err)
	}
	return append(out, data)
}

// truncatedDex returns container data — a single app encoded by
// apk.Encode, whose dex section comes last — with its dex payload cut to
// two thirds and the section re-framed, so the container is well formed
// and the open fails inside the dex skim, after it has filled its
// scratch.
func truncatedDex(t *testing.T, data []byte) []byte {
	t.Helper()
	app, err := apk.Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	n := len(dex.Encode(app.Program))
	header := len(binary.AppendUvarint(nil, uint64(n))) + 4 // length, CRC-32
	payload := data[len(data)-n : len(data)-n/3]
	out := append([]byte(nil), data[:len(data)-n-header]...)
	out = binary.AppendUvarint(out, uint64(len(payload)))
	out = binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(payload))
	return append(out, payload...)
}

// scanBytesRendered scans data through ScanBytes and renders the reports.
func scanBytesRendered(c *Checker, data []byte) (string, error) {
	res, err := c.ScanBytes(data)
	if err != nil {
		return "", err
	}
	if res.Incomplete {
		return "", fmt.Errorf("scan degraded: %v", res.Diagnostics.Errors)
	}
	return report.RenderAll(res.Reports), nil
}

// scanTruncated scans a container whose dex payload is cut short: the
// open must fail with ErrDecode inside the dex decoder, not in the
// container framing, and give its skim scratch back.
func scanTruncated(c *Checker, data []byte) error {
	if _, err := c.ScanBytes(data); !errors.Is(err, ErrDecode) || !strings.Contains(err.Error(), "dex: ") {
		return fmt.Errorf("truncated dex payload: got %v, want a dex ErrDecode", err)
	}
	return nil
}

// TestScanDeterminismHelperProcess is the child half of the fresh-process
// oracle: it scans exactly one app with a brand-new Checker in a process
// that has never scanned anything else, and writes the rendered report
// bytes to the requested file. Without the env vars it skips.
func TestScanDeterminismHelperProcess(t *testing.T) {
	idxStr := os.Getenv(determinismAppEnv)
	if idxStr == "" {
		t.Skip("helper-process entry point; driven by TestScanDeterminismAcrossSequentialScans")
	}
	idx, err := strconv.Atoi(idxStr)
	if err != nil {
		t.Fatalf("helper: bad index %q", idxStr)
	}
	var out string
	if os.Getenv(determinismBytesEnv) != "" {
		if out, err = scanBytesRendered(NewWithOptions(Options{}), determinismContainers(t)[idx]); err != nil {
			t.Fatalf("helper: %v", err)
		}
	} else {
		res := NewWithOptions(Options{}).ScanApp(determinismApps(t)[idx].App)
		if res.Incomplete {
			t.Fatalf("helper: scan degraded: %v", res.Diagnostics.Errors)
		}
		out = report.RenderAll(res.Reports)
	}
	if err := os.WriteFile(os.Getenv(determinismOutEnv), []byte(out), 0o644); err != nil {
		t.Fatalf("helper: %v", err)
	}
}

// freshScan renders app i, scanned by a helper process that has scanned
// nothing else: through ScanBytes of determinismContainers when bytes is
// set, else through ScanApp of determinismApps.
func freshScan(t *testing.T, i int, bytes bool) string {
	t.Helper()
	out := filepath.Join(t.TempDir(), "fresh.txt")
	cmd := exec.Command(os.Args[0], "-test.run", "^TestScanDeterminismHelperProcess$", "-test.v")
	cmd.Env = append(os.Environ(),
		fmt.Sprintf("%s=%d", determinismAppEnv, i),
		determinismOutEnv+"="+out,
	)
	if bytes {
		cmd.Env = append(cmd.Env, determinismBytesEnv+"=1")
	}
	if msg, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("helper process (app %d, bytes %t) failed: %v\n%s", i, bytes, err, msg)
	}
	fresh, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	return string(fresh)
}

// TestScanDeterminismAcrossSequentialScans: sequential scans of
// different apps through ONE Checker in ONE process must produce bytes
// identical to each app scanned by a fresh process, through ScanApp and
// through ScanBytes. The byte path runs the containers of
// determinismContainers with a container whose open fails in the dex
// skim before each, so every open after the first reuses skim scratch
// that a failed open gave back. Any intern table outliving its scan, any
// pooled buffer returned dirty, or any per-method scratch keyed on a
// stale program would show up here as a byte diff on a later app.
func TestScanDeterminismAcrossSequentialScans(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns child processes")
	}
	apps := determinismApps(t)
	nc := NewWithOptions(Options{})
	for i, a := range apps {
		res := nc.ScanApp(a.App)
		if res.Incomplete {
			t.Fatalf("%s: scan degraded: %v", a.Name, res.Diagnostics.Errors)
		}
		if got := report.RenderAll(res.Reports); got != freshScan(t, i, false) {
			t.Errorf("%s: report bytes from the sequential in-process scan differ from a fresh process", a.Name)
		}
	}
	containers := determinismContainers(t)
	for i, data := range containers {
		if err := scanTruncated(nc, truncatedDex(t, containers[len(containers)-1-i])); err != nil {
			t.Fatal(err)
		}
		got, err := scanBytesRendered(nc, data)
		if err != nil {
			t.Fatalf("container %d: %v", i, err)
		}
		if got != freshScan(t, i, true) {
			t.Errorf("container %d: report bytes from the sequential in-process ScanBytes differ from a fresh process", i)
		}
	}
}

// TestConcurrentScansShareScratchSafely: several goroutines scan the
// same small app set concurrently with the persistent cache on, so the
// pooled digest writers, the lazy open's pooled skim scratch and the
// shared store are genuinely contended; every scan must render
// byte-identical reports. Each goroutine scans the apps through ScanApp
// and their containers through ScanBytes, with an open that fails in the
// dex skim between containers. scripts/check.sh runs the suite under
// -race, making this the pooled-scratch data-race gate.
func TestConcurrentScansShareScratchSafely(t *testing.T) {
	if testing.Short() {
		t.Skip("concurrency storm")
	}
	apps := determinismApps(t)
	want := make([]string, len(apps))
	for i, a := range apps {
		res := NewWithOptions(Options{}).ScanApp(a.App)
		if res.Incomplete {
			t.Fatalf("%s: reference scan degraded: %v", a.Name, res.Diagnostics.Errors)
		}
		want[i] = report.RenderAll(res.Reports)
	}
	containers := determinismContainers(t)
	wantBytes := make([]string, len(containers))
	truncated := make([][]byte, len(containers))
	for i, data := range containers {
		var err error
		if wantBytes[i], err = scanBytesRendered(NewWithOptions(Options{}), data); err != nil {
			t.Fatalf("container %d: reference scan: %v", i, err)
		}
		truncated[i] = truncatedDex(t, data)
	}
	cacheDir := t.TempDir()
	const goroutines = 8
	var wg sync.WaitGroup
	errs := make(chan error, goroutines*(len(apps)+len(containers)))
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			nc := NewWithOptions(Options{CacheDir: cacheDir, CacheMode: CacheRW})
			for i, a := range apps {
				res := nc.ScanApp(a.App)
				if res.Incomplete {
					errs <- fmt.Errorf("goroutine %d, %s: scan degraded: %v", g, a.Name, res.Diagnostics.Errors)
					return
				}
				if got := report.RenderAll(res.Reports); got != want[i] {
					errs <- fmt.Errorf("goroutine %d, %s: concurrent scan rendered different bytes (%d vs %d)",
						g, a.Name, len(got), len(want[i]))
					return
				}
			}
			// Start at a different container per goroutine, so opens of
			// different sizes interleave on the pool.
			for k := range containers {
				i := (g + k) % len(containers)
				if err := scanTruncated(nc, truncated[(i+1)%len(containers)]); err != nil {
					errs <- fmt.Errorf("goroutine %d: %v", g, err)
					return
				}
				got, err := scanBytesRendered(nc, containers[i])
				if err != nil {
					errs <- fmt.Errorf("goroutine %d, container %d: %v", g, i, err)
					return
				}
				if got != wantBytes[i] {
					errs <- fmt.Errorf("goroutine %d, container %d: concurrent ScanBytes rendered different bytes (%d vs %d)",
						g, i, len(got), len(wantBytes[i]))
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

package cachestore

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// Cross-OS-process tests: the store's documented contract says concurrent
// *processes* sharing one directory are safe (atomic renames; benignly
// racing LRU scans). The in-process concurrent_test.go storms cannot
// prove that — the evictMu and the recency overlay only serialize within
// a process — so these tests re-exec the test binary as a genuinely
// separate process (the classic helper-process pattern) and drive churn
// and corruption healing across the process boundary. The fleet mode
// leans on exactly this: every worker on a host shares the same -cache
// directory with whatever CLI scans run beside it.

const (
	helperModeEnv = "CACHESTORE_HELPER_MODE"
	helperDirEnv  = "CACHESTORE_HELPER_DIR"
	helperKeyEnv  = "CACHESTORE_HELPER_KEY"
	helperMaxEnv  = "CACHESTORE_HELPER_MAX"
)

// crossPayload is the payload both processes commit; any hit must return
// exactly these bytes or the cross-process story is broken.
var crossPayload = bytes.Repeat([]byte("x"), 512)

// crossKey derives the same key in both processes from a string seed.
func crossKey(seed string) Key { return NewKey([]byte(seed)) }

// TestCacheHelperProcess is not a test of its own: it is the child half
// of the cross-process suite, selected via -test.run by the parents
// below and steered by CACHESTORE_HELPER_* variables. Without them it
// skips, so a plain `go test` run passes through it.
func TestCacheHelperProcess(t *testing.T) {
	dir := os.Getenv(helperDirEnv)
	if dir == "" {
		t.Skip("helper-process entry point; driven by the TestCrossProcess* parents")
	}
	var max int64
	fmt.Sscan(os.Getenv(helperMaxEnv), &max)
	s, err := Open(dir, Options{MaxBytes: max})
	if err != nil {
		t.Fatalf("helper: %v", err)
	}
	switch mode := os.Getenv(helperModeEnv); mode {
	case "churn":
		// Unique child keys force evictions while the parent churns its
		// own; shared keys are read back and must never be corrupt or
		// carry foreign bytes.
		for i := 0; i < 120; i++ {
			if _, err := s.Put(crossKey(fmt.Sprintf("child-%d", i)), crossPayload); err != nil {
				t.Fatalf("helper: churn Put: %v", err)
			}
			got, status := s.Get(crossKey(fmt.Sprintf("shared-%d", i%4)))
			switch {
			case status == StatusCorrupt:
				t.Fatalf("helper: shared entry read corrupt under cross-process churn")
			case status == StatusHit && !bytes.Equal(got, crossPayload):
				t.Fatalf("helper: shared hit returned foreign payload (%d bytes)", len(got))
			}
		}
		fmt.Println("helper: churn-done")
	case "put":
		if _, err := s.Put(crossKey(os.Getenv(helperKeyEnv)), crossPayload); err != nil {
			t.Fatalf("helper: Put: %v", err)
		}
		fmt.Println("helper: put-done")
	case "get":
		got, status := s.Get(crossKey(os.Getenv(helperKeyEnv)))
		switch status {
		case StatusHit:
			fmt.Printf("helper: get=hit payload=%d\n", len(got))
		case StatusMiss:
			fmt.Println("helper: get=miss")
		case StatusCorrupt:
			fmt.Println("helper: get=corrupt")
		}
	default:
		t.Fatalf("helper: unknown mode %q", mode)
	}
}

// runHelper re-execs this test binary as a separate OS process running
// only TestCacheHelperProcess in the given mode, and returns its output.
func runHelper(t *testing.T, dir, mode, key string, max int64) string {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run", "^TestCacheHelperProcess$", "-test.v")
	cmd.Env = append(os.Environ(),
		helperModeEnv+"="+mode,
		helperDirEnv+"="+dir,
		helperKeyEnv+"="+key,
		fmt.Sprintf("%s=%d", helperMaxEnv, max),
	)
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("helper process (%s) failed: %v\n%s", mode, err, out)
	}
	return string(out)
}

// TestCrossProcessVisibility: an entry committed by one OS process must
// read as a clean hit in another, and vice versa — the atomic
// write-then-rename commit is the only coordination between them.
func TestCrossProcessVisibility(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns child processes")
	}
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})

	// Parent writes, child reads.
	key := crossKey("parent-owned")
	if _, err := s.Put(key, crossPayload); err != nil {
		t.Fatal(err)
	}
	out := runHelper(t, dir, "get", "parent-owned", 0)
	if want := fmt.Sprintf("helper: get=hit payload=%d", len(crossPayload)); !strings.Contains(out, want) {
		t.Fatalf("child did not hit the parent's entry; want %q in:\n%s", want, out)
	}

	// Child writes, parent reads.
	runHelper(t, dir, "put", "child-owned", 0)
	got, status := s.Get(crossKey("child-owned"))
	if status != StatusHit || !bytes.Equal(got, crossPayload) {
		t.Fatalf("parent Get(child entry) = %v (%d bytes), want clean hit", status, len(got))
	}
}

// TestCrossProcessPutEvictChurn: two OS processes hammer one directory
// with a budget small enough that both run eviction scans mid-traffic.
// Neither side may ever observe a corrupt entry or a foreign payload,
// and after the storm the on-disk total must settle under the bound.
func TestCrossProcessPutEvictChurn(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns child processes")
	}
	dir := t.TempDir()
	entrySize := int64(len(EncodeEntry(crossPayload)))
	max := 6 * entrySize // room for ~6 entries: constant eviction on both sides
	s := mustOpen(t, dir, Options{MaxBytes: max})

	// Seed the shared keys both sides read during the churn.
	for i := 0; i < 4; i++ {
		if _, err := s.Put(crossKey(fmt.Sprintf("shared-%d", i)), crossPayload); err != nil {
			t.Fatal(err)
		}
	}

	childDone := make(chan string, 1)
	go func() { childDone <- runHelper(t, dir, "churn", "", max) }()

	// The parent's half of the storm: unique keys plus shared re-puts, so
	// renames, evictions, and reads interleave with the child's.
	for i := 0; i < 120; i++ {
		if _, err := s.Put(crossKey(fmt.Sprintf("parent-%d", i)), crossPayload); err != nil {
			t.Fatalf("parent churn Put: %v", err)
		}
		if i%10 == 0 {
			if _, err := s.Put(crossKey(fmt.Sprintf("shared-%d", i%4)), crossPayload); err != nil {
				t.Fatalf("parent shared Put: %v", err)
			}
		}
		got, status := s.Get(crossKey(fmt.Sprintf("shared-%d", i%4)))
		switch {
		case status == StatusCorrupt:
			t.Fatalf("parent: shared entry read corrupt under cross-process churn")
		case status == StatusHit && !bytes.Equal(got, crossPayload):
			t.Fatalf("parent: shared hit returned foreign payload (%d bytes)", len(got))
		}
	}
	if out := <-childDone; !strings.Contains(out, "helper: churn-done") {
		t.Fatalf("child churn did not finish cleanly:\n%s", out)
	}

	// One more Put forces a full eviction scan (the running total errs
	// high after cross-process traffic), which recomputes the true
	// on-disk total and trims it under the bound.
	if _, err := s.Put(crossKey("final"), crossPayload); err != nil {
		t.Fatal(err)
	}
	var total int64
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if strings.HasSuffix(e.Name(), entryExt) {
			info, err := e.Info()
			if err != nil {
				t.Fatal(err)
			}
			total += info.Size()
		}
	}
	if total > max {
		t.Errorf("after cross-process churn and a final eviction, disk holds %d bytes of entries, budget %d", total, max)
	}

	// And the directory is still a working cache.
	if _, status := s.Get(crossKey("final")); status != StatusHit {
		t.Errorf("Get after storm = %v, want hit", status)
	}
}

// TestCrossProcessCorruptHealing: corruption planted by one process
// (here: the parent truncating a committed entry, as a crashed writer
// on a non-atomic filesystem might) must be detected by another
// process's Get, deleted on the spot, and the slot must heal with the
// next Put — all visible back in the first process.
func TestCrossProcessCorruptHealing(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns child processes")
	}
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	key := crossKey("damaged")
	if _, err := s.Put(key, crossPayload); err != nil {
		t.Fatal(err)
	}

	// Truncate the committed entry mid-payload.
	path := filepath.Join(dir, key.Filename())
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	// The child must classify it corrupt, not hit, not crash.
	out := runHelper(t, dir, "get", "damaged", 0)
	if !strings.Contains(out, "helper: get=corrupt") {
		t.Fatalf("child did not report the truncated entry corrupt:\n%s", out)
	}
	// ... and must have removed the damaged file (self-healing).
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("damaged entry still on disk after the child's corrupt read (stat err=%v)", err)
	}
	// The parent sees the healed slot as a plain miss, re-puts, and the
	// child hits the fresh entry.
	if _, status := s.Get(key); status != StatusMiss {
		t.Fatalf("parent Get after child healing = %v, want miss", status)
	}
	if _, err := s.Put(key, crossPayload); err != nil {
		t.Fatal(err)
	}
	out = runHelper(t, dir, "get", "damaged", 0)
	if want := fmt.Sprintf("helper: get=hit payload=%d", len(crossPayload)); !strings.Contains(out, want) {
		t.Fatalf("child did not hit the healed entry; want %q in:\n%s", want, out)
	}

	// A bit-flip inside the payload (not just truncation) must also read
	// corrupt cross-process: the envelope checksum, not the length, is
	// what catches it.
	data, err = os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	out = runHelper(t, dir, "get", "damaged", 0)
	if !strings.Contains(out, "helper: get=corrupt") {
		t.Fatalf("child did not report the bit-flipped entry corrupt:\n%s", out)
	}
}

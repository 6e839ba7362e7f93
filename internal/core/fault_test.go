package core

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/android"
	"repro/internal/apk"
	"repro/internal/corpus"
)

// TestDecodeFailuresClassify: unreadable and malformed inputs come back
// as ErrDecode through every entry point, so corpus drivers can tell bad
// input from analysis failures.
func TestDecodeFailuresClassify(t *testing.T) {
	nc := New()
	if _, err := nc.ScanBytes([]byte("garbage")); !errors.Is(err, ErrDecode) {
		t.Errorf("ScanBytes(garbage) = %v, want ErrDecode", err)
	}
	if _, err := nc.ScanFile(filepath.Join(t.TempDir(), "nope.apk")); !errors.Is(err, ErrDecode) {
		t.Errorf("ScanFile(missing) = %v, want ErrDecode", err)
	}
	var se *ScanError
	_, err := nc.ScanBytesContext(context.Background(), []byte("garbage"))
	if !errors.As(err, &se) {
		t.Fatalf("decode failure is not a *ScanError: %v", err)
	}
	if se.Msg == "" {
		t.Error("ScanError.Msg empty for decode failure")
	}
}

// TestScanBytesContextCancellation: a canceled caller context degrades
// the scan instead of erroring or crashing — a well-formed container gets
// no error, and the scan reports through Result.Incomplete.
func TestScanBytesContextCancellation(t *testing.T) {
	data, err := apk.Encode(buggyApp(t))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := New().ScanBytesContext(ctx, data)
	if err != nil {
		t.Fatalf("ScanBytesContext: %v", err)
	}
	if !res.Incomplete {
		t.Fatal("canceled scan not marked Incomplete")
	}
	if err := res.Err(); !errors.Is(err, ErrCanceled) {
		t.Errorf("Err()=%v, want ErrCanceled", err)
	}
}

// TestOptionsTimeoutCompleteScan: a generous Timeout leaves a normal scan
// untouched — same reports as an unbounded run, Incomplete false.
func TestOptionsTimeoutCompleteScan(t *testing.T) {
	app := buggyApp(t)
	plain := New().ScanApp(app)
	bounded := NewWithOptions(Options{Timeout: time.Minute}).ScanApp(app)
	if bounded.Incomplete {
		t.Fatalf("bounded scan degraded: %v", bounded.Err())
	}
	if len(plain.Reports) != len(bounded.Reports) {
		t.Errorf("timeout changed results: %d vs %d reports", len(plain.Reports), len(bounded.Reports))
	}
}

// TestMalformedStructureRejectedAtOpen: the open rejects a class that is
// its own supertype and a branch past the end of its body, where a scan
// used to hang or panic. Each committed container in
// internal/dex/testdata is a two-class app whose AsyncTask subclass makes
// a network call: in inheritance-cycle.apk the task extends itself (the
// call graph's method lookup walked its superclass chain forever), and in
// branch-out-of-range.apk the task's goto targets a statement past its
// body (the summaries stage indexed the CFG out of range). Both decoders
// reject each with one error, and a ScanBytesContext of it fails with
// ErrDecode well within its deadline. The corpus app the cycle was first
// seen in, with its task made its own superclass, is rejected the same
// way.
func TestMalformedStructureRejectedAtOpen(t *testing.T) {
	for _, tc := range []struct{ file, want string }{
		{"inheritance-cycle.apk", "class t.Task: inheritance cycle"},
		{"branch-out-of-range.apk", "statement 3 branches out of range (7 of 4)"},
	} {
		data, err := os.ReadFile(filepath.Join("..", "dex", "testdata", tc.file))
		if err != nil {
			t.Fatal(err)
		}
		checkRejectedAtOpen(t, tc.file, data, tc.want)
	}
	if testing.Short() {
		return
	}
	apps, err := corpus.GenerateCorpus(2016)
	if err != nil {
		t.Fatal(err)
	}
	const task = "gen.app152.Comp0$Task"
	for _, a := range apps {
		if c := a.App.Program.Class(task); c != nil {
			if c.Super != android.ClassAsyncTask {
				t.Fatalf("%s extends %s; the case needs an AsyncTask", task, c.Super)
			}
			c.Super = task
			data, err := apk.Encode(a.App)
			if err != nil {
				t.Fatal(err)
			}
			checkRejectedAtOpen(t, a.Name, data, "class "+task+": inheritance cycle")
			return
		}
	}
	t.Fatalf("no corpus app declares %s", task)
}

func checkRejectedAtOpen(t *testing.T, name string, data []byte, want string) {
	t.Helper()
	_, eagerErr := apk.Decode(data)
	_, lazyErr := apk.DecodeLazy(data)
	if eagerErr == nil || lazyErr == nil || eagerErr.Error() != lazyErr.Error() {
		t.Fatalf("%s: eager=%v lazy=%v, want one error", name, eagerErr, lazyErr)
	}
	if !strings.Contains(eagerErr.Error(), want) {
		t.Errorf("%s: error %q does not say %q", name, eagerErr, want)
	}
	const deadline = 2 * time.Second
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()
	done := make(chan error, 1)
	go func() {
		_, err := New().ScanBytesContext(ctx, data)
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, ErrDecode) {
			t.Errorf("%s: ScanBytesContext = %v, want ErrDecode", name, err)
		}
	case <-time.After(2 * deadline):
		t.Fatalf("%s: ScanBytesContext still running at twice its %v deadline", name, deadline)
	}
}

package core

import (
	"context"
	"errors"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/apk"
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

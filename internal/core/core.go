// Package core is NChecker's public engine API — the paper's primary
// contribution assembled from the substrate packages. A Checker scans
// Android app binaries (our APK container format) and reports network
// programming defects (NPDs):
//
//	nc := core.New()
//	result, err := nc.ScanFile("app.apk")
//	if err != nil { ... }
//	for _, r := range result.Reports {
//	    fmt.Println(r.Render())
//	}
//
// Every scan starts from container bytes, as the paper's tool starts from
// the APK: ScanFile and ScanBytes open them, and ScanApp encodes an
// already-parsed app first. The pipeline mirrors §4 of the paper: open
// the binary lazily into the Jimple IR (internal/apk, internal/dex),
// decoding only the method bodies the demand closure reaches, build a
// lifecycle-aware call graph (internal/callgraph extending
// internal/hierarchy), then run the four API-misuse analyses and the
// customized-retry-loop identification (internal/checkers) against the
// library annotations (internal/apimodel), emitting actionable warning
// reports (internal/report).
package core

import (
	"context"
	"fmt"
	"time"

	"repro/internal/apimodel"
	"repro/internal/apk"
	"repro/internal/checkers"
	"repro/internal/report"
)

// Result is an app scan outcome: the warning reports, the per-request
// statistics the evaluation harness aggregates, and the scan's pipeline
// diagnostics. Result.Incomplete marks a degraded scan — one where a
// stage panicked, the deadline expired, or the context was canceled; the
// partial findings are still valid and deterministic, and Result.Err()
// explains what was lost.
type Result = checkers.Result

// Options re-exports the analysis options: the ablation switches plus
// Workers, how many apps a batch caller scans at once (0 = NumCPU; one
// scan always runs on its caller's goroutine), Timeout, the per-scan
// deadline (0 = none), and the persistent scan cache (CacheDir /
// CacheMode / CacheMaxBytes). Reports are identical with the cache off,
// cold, or warm.
type Options = checkers.Options

// CacheMode selects how a scan uses the persistent content-addressed
// cache rooted at Options.CacheDir: CacheOff disables it, CacheRO probes
// and restores without writing, CacheRW also commits clean scan results.
type CacheMode = checkers.CacheMode

// The cache modes, re-exported for callers configuring Options.
const (
	CacheOff = checkers.CacheOff
	CacheRO  = checkers.CacheRO
	CacheRW  = checkers.CacheRW
)

// ParseCacheMode parses the -cache-mode flag spellings off, ro, and rw.
func ParseCacheMode(s string) (CacheMode, error) {
	return checkers.ParseCacheMode(s)
}

// CheckerSet selects which of the eight checker families run
// (Options.Checkers): a bitmask over family numbers 1–8, zero meaning
// all. Reports of disabled families are simply absent; enabled families
// report byte-identically to a full scan.
type CheckerSet = checkers.CheckerSet

// ParseCheckerSet parses the -checkers flag: "all" (or ""), or a
// comma-separated list of family numbers and N-M ranges, e.g. "1,3,5-8".
func ParseCheckerSet(s string) (CheckerSet, error) {
	return checkers.ParseCheckerSet(s)
}

// Diagnostics re-exports the per-scan pipeline observability record:
// per-stage wall time, work volumes, analysis-cache hit counters, and
// the scan's ScanError list when degraded.
type Diagnostics = checkers.Diagnostics

// ScanError is the structured record of one survivable scan failure; its
// Kind is one of the taxonomy sentinels below and matches errors.Is.
type ScanError = checkers.ScanError

// The scan-failure taxonomy, re-exported from the pipeline so callers can
// classify failures without importing internal/checkers:
//
//	ErrDecode     — malformed APK container or dex payload
//	ErrStagePanic — a pipeline stage or work unit panicked (recovered)
//	ErrDeadline   — Options.Timeout (or the parent context's deadline) expired
//	ErrCanceled   — the scan's context was canceled
var (
	ErrDecode     = checkers.ErrDecode
	ErrStagePanic = checkers.ErrStagePanic
	ErrDeadline   = checkers.ErrDeadline
	ErrCanceled   = checkers.ErrCanceled
)

// Checker is a reusable NPD scanner. It is safe to use from multiple
// goroutines: all per-scan state lives in the scan.
type Checker struct {
	reg  *apimodel.Registry
	opts Options
}

// New returns a Checker with the standard six-library annotation registry
// and default options.
func New() *Checker {
	return NewWithOptions(Options{})
}

// NewWithOptions returns a Checker with explicit analysis options.
func NewWithOptions(opts Options) *Checker {
	return &Checker{reg: apimodel.NewRegistry(), opts: opts}
}

// Registry exposes the library annotations in use.
func (c *Checker) Registry() *apimodel.Registry { return c.reg }

// WithOptions returns a Checker that scans with opts and shares c's
// registry (and therefore its fingerprint and the one-registry-per-process
// economy). nchecker serve uses it to honor per-job ?validate= and
// ?checkers= overrides without rebuilding annotations.
func (c *Checker) WithOptions(opts Options) *Checker {
	return &Checker{reg: c.reg, opts: opts}
}

// Options returns the analysis options the Checker scans with. Long-lived
// callers (nchecker serve) use it to report the effective configuration.
func (c *Checker) Options() Options { return c.opts }

// ScanApp analyzes an already-parsed app. Every scan runs on container
// bytes, so the app is encoded and scanned exactly as ScanBytes would
// scan that encoding; the scan never touches the app itself, though the
// encode materializes a lazily opened app's bodies (see apk.Encode). An
// app that cannot be encoded (no manifest, an invalid one, or no
// program) yields an Incomplete Result whose single error is an
// ErrDecode ScanError.
func (c *Checker) ScanApp(app *apk.App) *Result {
	data, err := apk.Encode(app)
	start := time.Now()
	var opened *apk.App
	if err == nil {
		opened, err = apk.DecodeLazy(data)
	}
	if err != nil {
		return &Result{Incomplete: true, Diagnostics: Diagnostics{Errors: []ScanError{*decodeErr(err)}}}
	}
	return c.analyze(context.Background(), opened, start)
}

// ScanBytes parses an APK container from bytes and analyzes it.
func (c *Checker) ScanBytes(data []byte) (*Result, error) {
	return c.ScanBytesContext(context.Background(), data)
}

// ScanBytesContext is ScanBytes under a caller context. A malformed
// container yields an error matching ErrDecode. The container is opened
// lazily: method bodies outside the demand closure are never decoded.
// Cancellation and deadlines (including Options.Timeout) degrade the scan
// instead of aborting it: the Result keeps every completed stage's
// findings and is marked Incomplete.
func (c *Checker) ScanBytesContext(ctx context.Context, data []byte) (*Result, error) {
	start := time.Now()
	app, err := apk.DecodeLazy(data)
	if err != nil {
		return nil, fmt.Errorf("core: %w", decodeErr(err))
	}
	return c.analyze(ctx, app, start), nil
}

// ScanFile parses the APK container at path and analyzes it.
func (c *Checker) ScanFile(path string) (*Result, error) {
	return c.ScanFileContext(context.Background(), path)
}

// ScanFileContext is ScanFile under a caller context. An unreadable or
// malformed file yields an error matching ErrDecode. The file is opened
// lazily, like ScanBytesContext.
func (c *Checker) ScanFileContext(ctx context.Context, path string) (*Result, error) {
	start := time.Now()
	app, err := apk.ReadFileLazy(path)
	if err != nil {
		return nil, fmt.Errorf("core: %w", decodeErr(err))
	}
	return c.analyze(ctx, app, start), nil
}

// analyze scans an app the scan opened itself, starting at start, and
// then releases it. The Result holds nothing the release recycles: its
// reports keep strings and signatures, which stay with the collector, and
// every stage goroutine has been waited on when AnalyzeContext returns.
// The open's wall time — file read, container framing and skim — is the
// time from start to the analysis.
func (c *Checker) analyze(ctx context.Context, app *apk.App, start time.Time) *Result {
	open := time.Since(start)
	res := checkers.AnalyzeContext(ctx, app, c.reg, c.opts)
	app.Release()
	res.Diagnostics.Open = open
	return res
}

// decodeErr files a read/parse failure under ErrDecode in the taxonomy.
func decodeErr(err error) *ScanError {
	return &ScanError{Kind: ErrDecode, Unit: -1, Msg: err.Error()}
}

// Summarize aggregates a result's reports per cause.
func Summarize(res *Result) report.Summary {
	return report.Summarize(res.Reports)
}

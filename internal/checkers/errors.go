package checkers

import (
	"errors"
	"fmt"
	"sort"
)

// The scan-failure taxonomy. Every failure a scan can survive is recorded
// as a ScanError whose Kind is one of these sentinels, so callers can
// classify failures with errors.Is regardless of how many wrapping layers
// (core, the CLI, the corpus harness) sit in between.
var (
	// ErrDecode marks malformed untrusted input: an APK container or dex
	// payload that failed to parse (core.ScanBytes/ScanFile wrap decode
	// failures with it).
	ErrDecode = errors.New("decode failed")
	// ErrStagePanic marks a panic recovered inside a pipeline stage or one
	// of its work units; the ScanError carries the panic message and stack.
	ErrStagePanic = errors.New("stage panicked")
	// ErrDeadline marks a scan that ran out of its Options.Timeout budget
	// (or an already-expired parent context deadline).
	ErrDeadline = errors.New("scan deadline exceeded")
	// ErrCanceled marks a scan cut short by external context cancellation.
	ErrCanceled = errors.New("scan canceled")
)

// ScanError is one structured failure record of a scan. Failures never
// abort the pipeline: the affected stage or work unit is dropped, the
// Result is marked Incomplete, and the ScanError lands in
// Diagnostics.Errors so callers can see exactly what was lost.
type ScanError struct {
	// Kind is the taxonomy sentinel (ErrStagePanic, ErrDeadline, …);
	// errors.Is(e, ErrStagePanic) matches through Unwrap.
	Kind error
	// Stage names the pipeline stage that failed ("" for scan-level
	// failures such as a decode error before the pipeline started).
	Stage string
	// Unit is the work-unit index within the stage (a site or method
	// index), or -1 when the whole stage failed.
	Unit int
	// Msg carries the detail: the panic value, or the context error.
	Msg string
	// Stack is the recovered goroutine stack for panics ("" otherwise).
	Stack string
}

// Error renders the failure without the stack (Stack is kept separately
// for logs and bug reports).
func (e *ScanError) Error() string {
	switch {
	case e.Stage == "":
		return fmt.Sprintf("%v: %s", e.Kind, e.Msg)
	case e.Unit < 0:
		return fmt.Sprintf("stage %s: %v: %s", e.Stage, e.Kind, e.Msg)
	default:
		return fmt.Sprintf("stage %s unit %d: %v: %s", e.Stage, e.Unit, e.Kind, e.Msg)
	}
}

// Unwrap exposes the taxonomy sentinel to errors.Is.
func (e *ScanError) Unwrap() error { return e.Kind }

// Err returns nil for a complete scan, or an error joining every recorded
// ScanError of a degraded one.
func (r *Result) Err() error {
	if !r.Incomplete {
		return nil
	}
	errs := make([]error, len(r.Diagnostics.Errors))
	for i := range r.Diagnostics.Errors {
		errs[i] = &r.Diagnostics.Errors[i]
	}
	return errors.Join(errs...)
}

// stageRank fixes the deterministic order of Diagnostics.Errors: pipeline
// stage order first, unknown stages last.
var stageRank = map[string]int{
	"": 0, "build": 1, "summaries": 2, "discover": 3, "settings": 4,
	"parameters": 5, "notifications": 6, "responses": 7, "retryloops": 8,
}

// sortScanErrors orders errors by (stage, unit, message), the documented
// order of Diagnostics.Errors.
func sortScanErrors(errs []ScanError) {
	sort.SliceStable(errs, func(i, j int) bool {
		ri, okI := stageRank[errs[i].Stage]
		rj, okJ := stageRank[errs[j].Stage]
		if !okI {
			ri = len(stageRank)
		}
		if !okJ {
			rj = len(stageRank)
		}
		if ri != rj {
			return ri < rj
		}
		if errs[i].Unit != errs[j].Unit {
			return errs[i].Unit < errs[j].Unit
		}
		return errs[i].Msg < errs[j].Msg
	})
}

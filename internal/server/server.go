// Package server is nchecker's long-running scan service: the HTTP layer
// that turns the one-shot core.Checker pipeline into an observable daemon
// (the deployment shape the ROADMAP's production-scale scanner needs, and
// the layer future sharding/remote-worker PRs build on).
//
// Architecture (DESIGN.md §8):
//
//	POST /scan ──────► admission queue (bounded; full ⇒ 429) ──► worker pool (-jobs)
//	POST /scansync ──► (full ⇒ the request waits)                │ per-job deadline, ctx cancellation
//	GET /scan/{id} ◄── job book (jobbook.go) ◄───────────────────┤ /scan jobs
//	/scansync response ◄─────────────────────────────────────────┘ /scansync jobs
//
// Every scan, whichever endpoint submitted it, runs on one of the -jobs
// queue workers, so -jobs bounds all scans of the process.
//
// One process-wide core.Checker serves every job, so the API-model
// registry and framework stub program are built once, and all jobs share
// one cachestore.Shared store when Options.CacheDir is set. A job whose
// deadline expires mid-scan finishes as a degraded result (HTTP 200,
// status "done", degraded=true) — partial findings are real findings; only
// undecodable inputs fail a job. The server never 500s a scan.
//
// Observability: GET /metrics exports Prometheus-text counters and
// histograms folded from each scan's core.Diagnostics (per-stage timings,
// analysis/persistent-cache counters, queue depth, jobs in flight,
// degraded-scan count — see metrics.go for the catalog), GET /healthz is
// the liveness probe, net/http/pprof is mounted under /debug/pprof/, and
// every job lifecycle event is logged structurally via log/slog.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"strconv"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/report"
)

// Config tunes a Server.
type Config struct {
	// Scan is the per-job analysis configuration (ablation switches,
	// cache).
	Scan core.Options
	// Jobs is the number of concurrent scan workers, shared by POST /scan
	// and POST /scansync; each job's scan runs on its worker's goroutine.
	// 0 means 1.
	Jobs int
	// Queue bounds the admission queue; a POST /scan arriving with the
	// queue full is rejected with 429. 0 means DefaultQueue.
	Queue int
	// JobTimeout caps one job's scan wall time (0 = none). An expired
	// deadline yields a degraded result, not an error. A request may lower
	// it per job via POST /scan?timeout=30s, never raise it.
	JobTimeout time.Duration
	// MaxBodyBytes caps an uploaded app container; larger uploads get 413.
	// 0 means DefaultMaxBody.
	MaxBodyBytes int64
	// Retain bounds the finished jobs kept for GET /scan/{id}; the oldest
	// finished jobs are dropped beyond it. Queued and running jobs are
	// never dropped. 0 means DefaultRetain.
	Retain int
	// Logger receives structured job-lifecycle logs; nil means slog.Default.
	Logger *slog.Logger
}

// Defaults for the Config zero values.
const (
	DefaultQueue   = 64
	DefaultMaxBody = 64 << 20
	DefaultRetain  = 256
)

// JobStatus is a job's lifecycle state.
type JobStatus string

const (
	StatusQueued  JobStatus = "queued"
	StatusRunning JobStatus = "running"
	// StatusDone covers degraded scans too: partial findings are findings.
	StatusDone JobStatus = "done"
	// StatusFailed means the scan produced nothing (undecodable container).
	StatusFailed JobStatus = "failed"
)

// Job is one scan job's record, marshaled by GET /scan/{id}.
type Job struct {
	ID        string    `json:"id"`
	Name      string    `json:"name,omitempty"` // client-supplied app name
	Status    JobStatus `json:"status"`
	BodyBytes int64     `json:"bodyBytes"`

	Submitted time.Time  `json:"submitted"`
	Started   *time.Time `json:"started,omitempty"`
	Finished  *time.Time `json:"finished,omitempty"`

	// Scan outcome, present once Status is done.
	Requests   int             `json:"requests,omitempty"`
	Warnings   int             `json:"warnings,omitempty"`
	Degraded   bool            `json:"degraded,omitempty"`
	ReportText string          `json:"reportText,omitempty"` // byte-identical to the CLI's text mode
	Reports    []report.Report `json:"reports,omitempty"`
	// Error carries the decode failure (failed) or what a degraded scan
	// lost (done + degraded).
	Error string `json:"error,omitempty"`

	// Fleet telemetry, present when the record comes from a coordinator
	// (coord.go): the worker that produced the final result, how many
	// dispatch attempts the job took, and whether it was hedged.
	Worker   string `json:"worker,omitempty"`
	Attempts int    `json:"attempts,omitempty"`
	Hedged   bool   `json:"hedged,omitempty"`

	seq      int64           // numeric ID, for newest-first listings
	deadline time.Duration   // resolved per-job scan deadline (0 = none)
	validate bool            // resolved validation toggle (?validate= or the server default)
	checkers core.CheckerSet // resolved family selection (?checkers= or the server default)
	data     []byte          // app container bytes; released when the scan finishes

	// Sync-only (POST /scansync): the request's context, which bounds the
	// job's wait and its scan, and the signal run closes once the record
	// is final. Both are nil for a POST /scan job.
	req     context.Context
	settled chan struct{}

	// Coordinator-only bookkeeping (coord.go); unused by a worker Server.
	shard    [32]byte             // sha256 of the container bytes (= apk.Digest)
	query    string               // sanitized query string forwarded to /scansync
	terminal bool                 // a final result has been installed
	running  int                  // in-flight dispatch attempts
	cancels  []context.CancelFunc // cancel in-flight attempts on finalize
	fallback *Job                 // best degraded result held while retrying
}

// Server is the scan service. Construct with New, wire Handler into an
// http.Server, call Start to launch the workers, Shutdown to drain.
type Server struct {
	cfg     Config
	checker *core.Checker
	log     *slog.Logger
	metrics *metrics

	queue chan *Job
	mu    sync.Mutex // guards book and per-Job mutation
	book  jobBook
	// scanHook, when set, runs just before each scan with the scan's
	// context. Tests use it to hold a scan in flight.
	scanHook func(ctx context.Context)

	baseCtx context.Context
	cancel  context.CancelFunc
	wg      sync.WaitGroup
	started bool
}

// New builds a Server from cfg. The underlying Checker — hence the
// registry, the framework stubs, and the shared cache store — is
// constructed once here and reused by every job.
func New(cfg Config) *Server {
	if cfg.Jobs <= 0 {
		cfg.Jobs = 1
	}
	if cfg.Queue <= 0 {
		cfg.Queue = DefaultQueue
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = DefaultMaxBody
	}
	if cfg.Retain <= 0 {
		cfg.Retain = DefaultRetain
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.Default()
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:     cfg,
		checker: core.NewWithOptions(cfg.Scan),
		log:     cfg.Logger,
		metrics: newMetrics(),
		queue:   make(chan *Job, cfg.Queue),
		baseCtx: ctx,
		cancel:  cancel,
	}
	s.book = newJobBook(&s.mu, cfg.Retain)
	return s
}

// Start launches the worker pool. It is idempotent.
func (s *Server) Start() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.started {
		return
	}
	s.started = true
	for i := 0; i < s.cfg.Jobs; i++ {
		s.wg.Add(1)
		go s.worker()
	}
}

// Shutdown stops accepting queued work and waits (up to ctx) for running
// jobs to finish. Jobs still queued are abandoned in status "queued"; a
// POST /scansync still waiting answers 503.
func (s *Server) Shutdown(ctx context.Context) error {
	s.cancel()
	doneCh := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(doneCh)
	}()
	select {
	case <-doneCh:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Handler returns the service's HTTP routes.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /scan", s.handleSubmit)
	mux.HandleFunc("POST /scansync", s.handleScanSync)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.book.mount(mux)
	// pprof must be mounted explicitly on a non-default mux.
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// handleSubmit admits a scan job: read the container bytes, try the
// bounded queue, 429 when full.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	req := readScanRequest(w, r, s.cfg.MaxBodyBytes, s.cfg.JobTimeout, s.cfg.Scan)
	if req == nil {
		return
	}

	job := newJob(req)
	s.mu.Lock()
	select {
	case s.queue <- job:
		// A worker locks s.mu before it touches the job, so the id is set
		// before the job runs.
		s.book.addLocked(job)
		s.mu.Unlock()
	default:
		s.mu.Unlock()
		s.metrics.jobRejected()
		s.log.Warn("job rejected: queue full",
			"name", job.Name, "bytes", job.BodyBytes, "queue", cap(s.queue))
		w.Header().Set("Retry-After", "1")
		httpError(w, http.StatusTooManyRequests,
			fmt.Sprintf("admission queue full (%d jobs waiting)", cap(s.queue)))
		return
	}
	s.admitted(job)

	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusAccepted)
	json.NewEncoder(w).Encode(map[string]string{"id": job.ID, "status": string(StatusQueued)})
}

// admitted counts and logs a job the queue accepted.
func (s *Server) admitted(job *Job) {
	s.metrics.jobSubmitted()
	s.log.Info("job submitted",
		"id", job.ID, "name", job.Name, "bytes", job.BodyBytes, "queue_depth", len(s.queue))
}

// scanRequest is one parsed scan submission: the container bytes and the
// resolved per-request overrides.
type scanRequest struct {
	body     []byte
	name     string
	timeout  time.Duration
	validate bool
	checkers core.CheckerSet
}

// readScanRequest parses the scan submission every scan endpoint accepts
// (POST /scan, POST /scansync, and the coordinator's POST /scan): the
// container body, capped at maxBody (413 beyond it) and non-empty (400),
// plus the ?name=, ?timeout=, ?validate= and ?checkers= parameters, the
// overrides resolved against maxTimeout and defaults (400 on a bad one).
// On a bad request it writes the error response and returns nil.
func readScanRequest(w http.ResponseWriter, r *http.Request, maxBody int64, maxTimeout time.Duration, defaults core.Options) *scanRequest {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBody))
	if err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			httpError(w, http.StatusRequestEntityTooLarge,
				fmt.Sprintf("app container exceeds %d bytes", tooLarge.Limit))
			return nil
		}
		httpError(w, http.StatusBadRequest, "reading request body: "+err.Error())
		return nil
	}
	if len(body) == 0 {
		httpError(w, http.StatusBadRequest, "empty request body: POST the app container bytes")
		return nil
	}
	q := r.URL.Query()
	req := &scanRequest{body: body, name: q.Get("name")}
	req.timeout, err = jobTimeout(q.Get("timeout"), maxTimeout)
	if err == nil {
		req.validate, err = jobValidate(q.Get("validate"), defaults.Validate)
	}
	if err == nil {
		req.checkers, err = jobCheckers(q.Get("checkers"), defaults.Checkers)
	}
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return nil
	}
	return req
}

// newJob builds the queued record of a parsed scan request.
func newJob(req *scanRequest) *Job {
	return &Job{
		Name:      req.name,
		Status:    StatusQueued,
		BodyBytes: int64(len(req.body)),
		Submitted: time.Now(),
		deadline:  req.timeout,
		validate:  req.validate,
		checkers:  req.checkers,
		data:      req.body,
	}
}

// fillJob records a finished scan's outcome on its job record: failed
// with the decode error, or done with the scan's counts and reports.
func fillJob(job *Job, res *core.Result, err error) {
	if err != nil {
		job.Status = StatusFailed
		job.Error = err.Error()
		return
	}
	job.Status = StatusDone
	job.Requests = res.Stats.Requests
	job.Warnings = len(res.Reports)
	job.Degraded = res.Incomplete
	job.ReportText = report.RenderAll(res.Reports)
	job.Reports = res.Reports
	if resErr := res.Err(); resErr != nil {
		job.Error = resErr.Error()
	}
}

// jobChecker derives a job's Checker from the server's with its resolved
// ?validate= and ?checkers= overrides. WithOptions shares the
// process-wide registry: a per-job override costs one small struct, not a
// rebuilt Checker.
func (s *Server) jobChecker(validate bool, set core.CheckerSet) *core.Checker {
	opts := s.checker.Options()
	opts.Validate, opts.Checkers = validate, set
	return s.checker.WithOptions(opts)
}

// jobValidate resolves a per-request ?validate= override: empty keeps the
// server's default, anything else must parse as a boolean.
func jobValidate(param string, def bool) (bool, error) {
	if param == "" {
		return def, nil
	}
	v, err := strconv.ParseBool(param)
	if err != nil {
		return false, fmt.Errorf("invalid validate %q (want a boolean, e.g. ?validate=1)", param)
	}
	return v, nil
}

// jobCheckers resolves a per-request ?checkers= override: empty keeps the
// server's default family selection, anything else must parse as a
// -checkers spelling ("all", "1,3,5-8", …).
func jobCheckers(param string, def core.CheckerSet) (core.CheckerSet, error) {
	if param == "" {
		return def, nil
	}
	set, err := core.ParseCheckerSet(param)
	if err != nil {
		return 0, fmt.Errorf("invalid checkers %q (want e.g. ?checkers=5-8): %v", param, err)
	}
	return set, nil
}

// jobTimeout resolves a per-request timeout override against the server
// bound: requests may tighten the deadline, never loosen it.
func jobTimeout(param string, serverMax time.Duration) (time.Duration, error) {
	if param == "" {
		return serverMax, nil
	}
	d, err := time.ParseDuration(param)
	if err != nil || d <= 0 {
		return 0, fmt.Errorf("invalid timeout %q (want a positive Go duration, e.g. 30s)", param)
	}
	if serverMax > 0 && d > serverMax {
		return serverMax, nil
	}
	return d, nil
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	io.WriteString(w, s.metrics.render(len(s.queue), cap(s.queue)))
}

// worker drains the admission queue until Shutdown.
func (s *Server) worker() {
	defer s.wg.Done()
	for {
		select {
		case <-s.baseCtx.Done():
			return
		case job := <-s.queue:
			s.run(job)
		}
	}
}

// run executes one job through the shared Checker under its deadline.
// A sync job's scan also stops with its request, and one whose request
// is already gone is dropped unscanned; its record is the response, so it
// never enters the book.
func (s *Server) run(job *Job) {
	if job.req != nil {
		defer close(job.settled)
		if job.req.Err() != nil {
			s.metrics.jobCanceled()
			s.log.Info("job dropped: request gone before its scan", "id", job.ID, "name", job.Name)
			return
		}
	}
	start := time.Now()
	s.mu.Lock()
	job.Status = StatusRunning
	job.Started = &start
	data, deadline, validate, checkerSet := job.data, job.deadline, job.validate, job.checkers
	s.mu.Unlock()
	s.metrics.scanStarted()

	ctx, cancel := context.WithCancel(s.baseCtx)
	defer cancel()
	if job.req != nil {
		defer context.AfterFunc(job.req, cancel)()
	}
	if deadline > 0 {
		ctx, cancel = context.WithTimeout(ctx, deadline)
		defer cancel()
	}
	if s.scanHook != nil {
		s.scanHook(ctx)
	}
	res, err := s.jobChecker(validate, checkerSet).ScanBytesContext(ctx, data)
	finished := time.Now()

	s.mu.Lock()
	job.Finished = &finished
	job.data = nil // the container bytes are dead weight once scanned
	fillJob(job, res, err)
	if job.req == nil {
		s.book.retireLocked(job.ID)
	}
	s.mu.Unlock()

	dur := finished.Sub(start)
	queueWait := start.Sub(job.Submitted)
	if err != nil {
		s.metrics.jobFailed()
		s.log.Error("job failed",
			"id", job.ID, "name", job.Name, "bytes", job.BodyBytes,
			"duration", dur, "queue_wait", queueWait, "error", err.Error())
		return
	}
	s.metrics.jobDone(&res.Diagnostics, res.Incomplete)
	s.log.Info("job done",
		"id", job.ID, "name", job.Name, "bytes", job.BodyBytes,
		"duration", dur, "queue_wait", queueWait,
		"requests", res.Stats.Requests, "warnings", len(res.Reports),
		"degraded", res.Incomplete)
}

// httpError writes a JSON error body with the status code.
func httpError(w http.ResponseWriter, code int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": msg, "status": strconv.Itoa(code)})
}

// Fleet coordinator (DESIGN.md §12): the front door of a multi-process
// scan fleet. The coordinator owns admission, job records, and retention
// — the same surface a single `nchecker serve` exposes, kept in the same
// job book (jobbook.go) — but instead of scanning, it shards each job to
// one of N registered worker processes over HTTP:
//
//	POST /scan ──► shard by sha256(body) ──► per-worker queue ──► POST {worker}/scansync
//	                   (rendezvous hash)      │ work stealing          │ hedged + retried
//	GET /scan/{id} ◄── coordinator job store ◄┘                        │
//	GET /metrics  ◄── own fleet counters + Sum of worker /metrics      │
//	/cache/{entry} ◄─► replication hub: any worker's cache hit ────────┘
//	                   serves the whole fleet
//
// The shard key is the sha256 of the raw container bytes — exactly
// apk.Digest for any container that decodes, and the digest the checkers'
// cache key anatomy is built on — so a resubmitted app lands on the
// worker whose local cache is already warm. Placement uses rendezvous
// (highest-random-weight) hashing over the live worker set: when a worker
// joins or dies only its own share of keys moves.
//
// Fault model (mirrors the PR 2 degraded-scan taxonomy):
//   - Worker unreachable → probe; if dead, mark down, requeue its queued
//     dispatches elsewhere, retry the in-flight job on another worker.
//   - Scan degraded (timeout/cancellation inside the worker) → retry on
//     another worker up to the -retries budget, keeping the degraded
//     result as the fallback answer — a degraded report is still a report.
//   - Scan failed (undecodable container) → terminal immediately;
//     deterministic failures are not retried.
//   - Slow worker → after the -hedge delay the job is dispatched a second
//     time to an idle peer; the first terminal result wins and the
//     loser's request context is canceled.
//
// Work stealing: an idle worker steals the oldest queued dispatch from
// the longest live peer queue, so one slow worker cannot strand a shard.
package server

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"time"

	"repro/internal/cachestore"
	"repro/internal/core"
	"repro/internal/promtext"
)

// CoordConfig tunes a Coordinator.
type CoordConfig struct {
	// Queue bounds pending (not yet dispatched) jobs fleet-wide; a POST
	// /scan beyond it is rejected with 429. 0 means DefaultQueue.
	Queue int
	// Retain bounds finished job records, as in Config.Retain.
	Retain int
	// MaxBodyBytes caps an uploaded container, as in Config.MaxBodyBytes.
	MaxBodyBytes int64
	// Hedge is how long a dispatched job may run before it is speculatively
	// dispatched a second time to an idle peer. 0 disables hedging.
	Hedge time.Duration
	// Retries is the attempt budget per job across workers (hedges
	// included). 0 means DefaultRetries.
	Retries int
	// CacheDir, when set, hosts the fleet cache hub: workers fetch and push
	// entry envelopes through /cache/{entry} so any member's hit serves all.
	CacheDir string
	// CacheMaxBytes bounds the hub store (0 = unbounded).
	CacheMaxBytes int64
	// Logger receives fleet lifecycle logs; nil means slog.Default.
	Logger *slog.Logger
}

// DefaultRetries is the per-job attempt budget when CoordConfig.Retries
// is zero: the first dispatch plus two more tries elsewhere.
const DefaultRetries = 3

// fleetDispatch is one queued attempt of a job on some worker's queue.
type fleetDispatch struct {
	job   *Job
	hedge bool // a speculative duplicate, not a retry
	// avoid is the worker this dispatch was deliberately placed away from
	// (it just failed, degraded, or is being hedged against). Stealing
	// respects it: a fast-but-degrading worker must not steal back the
	// very retry that was routed around it.
	avoid *fleetWorker
}

// fleetWorker is the coordinator's view of one registered worker process.
type fleetWorker struct {
	url      string
	queue    []*fleetDispatch
	down     bool
	inflight int
	done     int64 // terminal results this worker won
}

// Coordinator is the fleet front door. Construct with NewCoordinator,
// wire Handler into an http.Server, Shutdown to drain. Workers announce
// themselves via POST /fleet/register (JoinFleet is the client side).
type Coordinator struct {
	cfg    CoordConfig
	log    *slog.Logger
	cm     *coordMetrics
	hub    *cachestore.Store
	client *http.Client // dispatch client: per-attempt ctx, no overall timeout
	probe  *http.Client // short-deadline liveness probes and metric scrapes

	mu      sync.Mutex
	cond    *sync.Cond // signals queued work to dispatch loops
	workers []*fleetWorker
	orphans []*fleetDispatch // dispatches with no live worker to run them
	book    jobBook
	pending int // queued dispatches fleet-wide (per-worker queues + orphans)
	closed  bool
	wg      sync.WaitGroup
}

// NewCoordinator builds a Coordinator from cfg. With CacheDir set it also
// opens the fleet cache hub store.
func NewCoordinator(cfg CoordConfig) (*Coordinator, error) {
	if cfg.Queue <= 0 {
		cfg.Queue = DefaultQueue
	}
	if cfg.Retain <= 0 {
		cfg.Retain = DefaultRetain
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = DefaultMaxBody
	}
	if cfg.Retries <= 0 {
		cfg.Retries = DefaultRetries
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.Default()
	}
	c := &Coordinator{
		cfg:    cfg,
		log:    cfg.Logger,
		cm:     newCoordMetrics(),
		client: &http.Client{},
		probe:  &http.Client{Timeout: 3 * time.Second},
	}
	c.cond = sync.NewCond(&c.mu)
	c.book = newJobBook(&c.mu, cfg.Retain)
	if cfg.CacheDir != "" {
		hub, err := cachestore.Shared(cfg.CacheDir, cachestore.Options{MaxBytes: cfg.CacheMaxBytes})
		if err != nil {
			return nil, fmt.Errorf("coordinator cache hub: %w", err)
		}
		c.hub = hub
	}
	return c, nil
}

// Shutdown stops dispatching and waits (up to ctx) for in-flight
// attempts to settle. Queued jobs are abandoned in status "queued".
func (c *Coordinator) Shutdown(ctx context.Context) error {
	c.mu.Lock()
	c.closed = true
	for _, j := range c.book.jobs {
		for _, cancel := range j.cancels {
			cancel()
		}
	}
	c.cond.Broadcast()
	c.mu.Unlock()
	doneCh := make(chan struct{})
	go func() {
		c.wg.Wait()
		close(doneCh)
	}()
	select {
	case <-doneCh:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Handler returns the coordinator's HTTP routes. The scan surface (POST
// /scan, GET /scan/{id}, GET /scans) is shaped exactly like a worker's,
// so any client of one process speaks fleet unchanged.
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /scan", c.handleSubmit)
	mux.HandleFunc("GET /metrics", c.handleMetrics)
	c.book.mount(mux)
	mux.HandleFunc("POST /fleet/register", c.handleRegister)
	mux.HandleFunc("GET /fleet", c.handleFleet)
	mux.HandleFunc("GET /cache/{entry}", c.handleCacheGet)
	mux.HandleFunc("PUT /cache/{entry}", c.handleCachePut)
	return mux
}

// Register adds (or revives) a worker by base URL and starts its dispatch
// loop. Queued orphans — jobs admitted while no worker was live — are
// re-placed immediately.
func (c *Coordinator) Register(workerURL string) error {
	u, err := url.Parse(workerURL)
	if err != nil || u.Scheme == "" || u.Host == "" {
		return fmt.Errorf("invalid worker URL %q", workerURL)
	}
	base := u.Scheme + "://" + u.Host

	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return errors.New("coordinator shutting down")
	}
	for _, w := range c.workers {
		if w.url == base {
			if !w.down {
				return nil // duplicate registration, already serving
			}
			w.down = false
			c.startWorkerLocked(w)
			c.replaceOrphansLocked()
			c.log.Info("fleet worker revived", "worker", base)
			return nil
		}
	}
	w := &fleetWorker{url: base}
	c.workers = append(c.workers, w)
	c.cm.inc(fleetWorkersJoined)
	c.startWorkerLocked(w)
	c.replaceOrphansLocked()
	c.log.Info("fleet worker registered", "worker", base, "fleet_size", len(c.liveWorkersLocked()))
	return nil
}

func (c *Coordinator) startWorkerLocked(w *fleetWorker) {
	c.wg.Add(1)
	go c.dispatchLoop(w)
	c.cond.Broadcast()
}

// replaceOrphansLocked re-places dispatches that had no live worker.
func (c *Coordinator) replaceOrphansLocked() {
	orphans := c.orphans
	c.orphans = nil
	for _, d := range orphans {
		c.enqueueLocked(d, nil)
	}
}

// liveWorkersLocked returns the workers currently accepting dispatches.
func (c *Coordinator) liveWorkersLocked() []*fleetWorker {
	live := make([]*fleetWorker, 0, len(c.workers))
	for _, w := range c.workers {
		if !w.down {
			live = append(live, w)
		}
	}
	return live
}

// rendezvousOwner picks the highest-random-weight worker for a shard key:
// score(worker) = first 8 bytes of sha256(shard ‖ worker URL). The same
// placement falls out on every coordinator restart, and removing a worker
// moves only the keys it owned.
func rendezvousOwner(shard [32]byte, candidates []*fleetWorker) *fleetWorker {
	var best *fleetWorker
	var bestScore uint64
	for _, w := range candidates {
		h := sha256.New()
		h.Write(shard[:])
		io.WriteString(h, w.url)
		score := binary.BigEndian.Uint64(h.Sum(nil))
		if best == nil || score > bestScore || (score == bestScore && w.url < best.url) {
			best, bestScore = w, score
		}
	}
	return best
}

// enqueueLocked places a dispatch on a worker queue. avoid (may be nil)
// excludes the worker that just failed or is being hedged against —
// unless it is the only one live. With no live worker at all the dispatch
// parks on the orphan list until one registers. Caller holds c.mu and has
// already counted the dispatch into c.pending.
func (c *Coordinator) enqueueLocked(d *fleetDispatch, avoid *fleetWorker) {
	candidates := c.liveWorkersLocked()
	if avoid != nil && len(candidates) > 1 {
		filtered := make([]*fleetWorker, 0, len(candidates)-1)
		for _, w := range candidates {
			if w != avoid {
				filtered = append(filtered, w)
			}
		}
		candidates = filtered
	}
	if len(candidates) == 0 {
		c.orphans = append(c.orphans, d)
		return
	}
	var target *fleetWorker
	if d.hedge {
		// A hedge wants the idlest peer, not the shard owner — the owner is
		// the one being slow.
		for _, w := range candidates {
			if target == nil || w.inflight+len(w.queue) < target.inflight+len(target.queue) {
				target = w
			}
		}
	} else {
		target = rendezvousOwner(d.job.shard, candidates)
	}
	target.queue = append(target.queue, d)
	c.cond.Broadcast()
}

// popLocked takes the next dispatch for w: its own queue first, then the
// oldest stealable dispatch from the longest live peer queue. A dispatch
// placed away from w (avoid) is never stolen by w. Dispatches for
// already-terminal jobs (a hedge that lost before starting) are dropped.
// Caller holds c.mu.
func (c *Coordinator) popLocked(w *fleetWorker) *fleetDispatch {
	for {
		var d *fleetDispatch
		if len(w.queue) > 0 {
			d, w.queue = w.queue[0], w.queue[1:]
		} else {
			var victim *fleetWorker
			victimIdx := -1
			for _, peer := range c.workers {
				if peer == w || peer.down {
					continue
				}
				for i, cand := range peer.queue {
					if cand.avoid == w && !cand.job.terminal {
						continue
					}
					if victim == nil || len(peer.queue) > len(victim.queue) {
						victim, victimIdx = peer, i
					}
					break
				}
			}
			if victim == nil {
				return nil
			}
			d = victim.queue[victimIdx]
			victim.queue = append(victim.queue[:victimIdx], victim.queue[victimIdx+1:]...)
			if !d.job.terminal {
				c.cm.inc(fleetSteals)
				c.log.Debug("dispatch stolen", "job", d.job.ID, "thief", w.url, "victim", victim.url)
			}
		}
		c.pending--
		if d.job.terminal {
			continue // lost hedge or abandoned retry; nothing to run
		}
		return d
	}
}

// dispatchLoop feeds queued jobs to one worker until shutdown or the
// worker is marked down.
func (c *Coordinator) dispatchLoop(w *fleetWorker) {
	defer c.wg.Done()
	for {
		c.mu.Lock()
		var d *fleetDispatch
		for {
			if c.closed || w.down {
				c.mu.Unlock()
				return
			}
			if d = c.popLocked(w); d != nil {
				break
			}
			c.cond.Wait()
		}
		job := d.job
		job.Attempts++
		job.running++
		attempt := job.Attempts
		if job.Started == nil {
			now := time.Now()
			job.Started = &now
		}
		job.Status = StatusRunning
		ctx, cancel := context.WithCancel(context.Background())
		job.cancels = append(job.cancels, cancel)
		w.inflight++
		query, data := job.query, job.data
		c.mu.Unlock()

		// Arm the hedge: if this attempt is still running after the delay,
		// dispatch the job once more to an idle peer.
		var hedgeTimer *time.Timer
		if c.cfg.Hedge > 0 && !d.hedge {
			hedgeTimer = time.AfterFunc(c.cfg.Hedge, func() { c.maybeHedge(job, w) })
		}
		res, err := c.scanOnWorker(ctx, w.url, query, data)
		if hedgeTimer != nil {
			hedgeTimer.Stop()
		}
		canceled := ctx.Err() != nil

		// A transport error may mean the worker died; probe before deciding,
		// outside the lock.
		workerDead := false
		if err != nil && !canceled {
			workerDead = !c.probeWorker(w.url)
		}

		c.mu.Lock()
		w.inflight--
		job.running--
		cancel()
		switch {
		case canceled || job.terminal:
			// Lost a hedge race or shutdown: the result (if any) is surplus.
		case err == nil && res.Status == StatusDone && res.Degraded && attempt < c.cfg.Retries:
			// Degraded by this worker's local trouble (deadline, load): keep
			// the partial result as the floor and try elsewhere.
			job.fallback = res
			c.cm.inc(fleetDegradedRetries)
			c.log.Warn("degraded result, retrying elsewhere",
				"job", job.ID, "worker", w.url, "attempt", attempt)
			c.requeueLocked(job, w)
		case err == nil:
			if res.Degraded && job.fallback != nil && !job.fallback.Degraded {
				res = job.fallback // never finalize worse than the floor
			}
			c.finalizeLocked(job, res, w)
		case workerDead:
			c.markDownLocked(w)
			c.retryOrFailLocked(job, w, attempt, err)
		default:
			// Transient transport trouble; the worker answered its probe.
			c.retryOrFailLocked(job, w, attempt, err)
		}
		c.mu.Unlock()
	}
}

// retryOrFailLocked requeues a failed attempt while budget remains, else
// finalizes the job — degraded fallback first, hard failure last.
func (c *Coordinator) retryOrFailLocked(job *Job, avoid *fleetWorker, attempt int, cause error) {
	if job.terminal {
		return
	}
	if attempt < c.cfg.Retries {
		c.cm.inc(fleetRetries)
		c.requeueLocked(job, avoid)
		return
	}
	if job.running > 0 {
		return // a concurrent hedge is still in flight; let it decide
	}
	if job.fallback != nil {
		c.finalizeLocked(job, job.fallback, avoid)
		return
	}
	now := time.Now()
	job.Status = StatusFailed
	job.Finished = &now
	job.Error = fmt.Sprintf("all %d attempts failed; last worker %s: %v", attempt, avoid.url, cause)
	c.sealLocked(job)
	c.cm.inc(fleetJobsFailed)
	c.log.Error("job failed: attempts exhausted", "job", job.ID, "attempts", attempt, "error", cause.Error())
}

// requeueLocked puts a fresh dispatch for job back on the fleet, avoiding
// the worker that just handled it. Caller holds c.mu.
func (c *Coordinator) requeueLocked(job *Job, avoid *fleetWorker) {
	if job.running == 0 {
		job.Status = StatusQueued
	}
	c.pending++
	c.enqueueLocked(&fleetDispatch{job: job, avoid: avoid}, avoid)
}

// maybeHedge fires when a dispatch has been in flight for the hedge
// delay: dispatch the job once more to the idlest other worker. One hedge
// per job; the first terminal result wins.
func (c *Coordinator) maybeHedge(job *Job, slow *fleetWorker) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed || job.terminal || job.Hedged {
		return
	}
	if len(c.liveWorkersLocked()) < 2 {
		return // nowhere else to run it
	}
	job.Hedged = true
	c.cm.inc(fleetHedges)
	c.pending++
	c.enqueueLocked(&fleetDispatch{job: job, hedge: true, avoid: slow}, slow)
	c.log.Info("hedging slow dispatch", "job", job.ID, "slow_worker", slow.url, "hedge_after", c.cfg.Hedge)
}

// finalizeLocked installs res as job's terminal record. First writer
// wins: a concurrent hedge or superseded retry finds terminal set and
// discards its result. Caller holds c.mu.
func (c *Coordinator) finalizeLocked(job *Job, res *Job, w *fleetWorker) {
	if job.terminal {
		return
	}
	now := time.Now()
	job.Status = res.Status
	job.Finished = &now
	job.Requests = res.Requests
	job.Warnings = res.Warnings
	job.Degraded = res.Degraded
	job.ReportText = res.ReportText
	job.Reports = res.Reports
	job.Error = res.Error
	job.Worker = w.url
	w.done++
	c.sealLocked(job)
	if job.Status == StatusFailed {
		c.cm.inc(fleetJobsFailed)
	} else {
		c.cm.inc(fleetJobsDone)
		if job.Degraded {
			c.cm.inc(fleetJobsDegraded)
		}
	}
	c.log.Info("job done",
		"job", job.ID, "name", job.Name, "worker", w.url, "status", job.Status,
		"attempts", job.Attempts, "hedged", job.Hedged, "requests", job.Requests,
		"warnings", job.Warnings, "degraded", job.Degraded,
		"duration", now.Sub(job.Submitted))
}

// sealLocked marks a job terminal: cancel any other in-flight attempts,
// release the container bytes, run retention. Caller holds c.mu.
func (c *Coordinator) sealLocked(job *Job) {
	job.terminal = true
	job.data = nil
	job.fallback = nil
	for _, cancel := range job.cancels {
		cancel()
	}
	job.cancels = nil
	c.book.retireLocked(job.ID)
}

// markDownLocked removes a worker from placement and re-places everything
// queued on it. Its dispatch loop exits on next wake; a later
// re-registration revives it.
func (c *Coordinator) markDownLocked(w *fleetWorker) {
	if w.down {
		return
	}
	w.down = true
	c.cm.inc(fleetWorkersDown)
	c.log.Warn("fleet worker down", "worker", w.url, "requeued", len(w.queue))
	queued := w.queue
	w.queue = nil
	for _, d := range queued {
		c.enqueueLocked(d, w)
	}
	c.cond.Broadcast()
}

// probeWorker reports whether a worker still answers its health check.
func (c *Coordinator) probeWorker(base string) bool {
	resp, err := c.probe.Get(base + "/healthz")
	if err != nil {
		return false
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

// scanOnWorker runs one synchronous scan attempt against a worker and
// decodes the finished Job record it answers.
func (c *Coordinator) scanOnWorker(ctx context.Context, base, query string, data []byte) (*Job, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/scansync"+query, bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	resp, err := c.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("worker answered %d: %s", resp.StatusCode, body)
	}
	var job Job
	if err := json.Unmarshal(body, &job); err != nil {
		return nil, fmt.Errorf("undecodable worker response: %w", err)
	}
	if job.Status != StatusDone && job.Status != StatusFailed {
		return nil, fmt.Errorf("worker answered non-terminal status %q", job.Status)
	}
	return &job, nil
}

// handleSubmit admits a job fleet-wide: validate the same per-request
// overrides a worker accepts (rejecting bad ones here, before they cost a
// dispatch), bound the pending queue, shard, enqueue.
func (c *Coordinator) handleSubmit(w http.ResponseWriter, r *http.Request) {
	req := readScanRequest(w, r, c.cfg.MaxBodyBytes, 0, core.Options{})
	if req == nil {
		return
	}
	q := r.URL.Query()
	// Forward only the parameters /scansync understands, re-encoded.
	fwd := url.Values{}
	for _, k := range []string{"name", "timeout", "validate", "checkers"} {
		if v := q.Get(k); v != "" {
			fwd.Set(k, v)
		}
	}
	query := ""
	if len(fwd) > 0 {
		query = "?" + fwd.Encode()
	}

	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		httpError(w, http.StatusServiceUnavailable, "coordinator shutting down")
		return
	}
	if c.pending >= c.cfg.Queue {
		pending := c.pending
		c.mu.Unlock()
		c.cm.inc(fleetJobsRejected)
		c.log.Warn("job rejected: fleet queue full", "pending", pending, "queue", c.cfg.Queue)
		w.Header().Set("Retry-After", "1")
		httpError(w, http.StatusTooManyRequests,
			fmt.Sprintf("fleet queue full (%d jobs waiting)", pending))
		return
	}
	job := newJob(req)
	job.shard, job.query = sha256.Sum256(req.body), query
	c.book.addLocked(job)
	c.pending++
	c.enqueueLocked(&fleetDispatch{job: job}, nil)
	depth := c.pending
	c.mu.Unlock()

	c.cm.inc(fleetJobsSubmitted)
	c.log.Info("job submitted", "job", job.ID, "name", job.Name, "bytes", job.BodyBytes, "pending", depth)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusAccepted)
	json.NewEncoder(w).Encode(map[string]string{"id": job.ID, "status": string(StatusQueued)})
}

// handleRegister is the worker announcement endpoint: {"url": "http://…"}.
func (c *Coordinator) handleRegister(w http.ResponseWriter, r *http.Request) {
	var req struct {
		URL string `json:"url"`
	}
	if err := json.NewDecoder(io.LimitReader(r.Body, 4096)).Decode(&req); err != nil || req.URL == "" {
		httpError(w, http.StatusBadRequest, `want a JSON body like {"url": "http://host:port"}`)
		return
	}
	if err := c.Register(req.URL); err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]string{"status": "registered"})
}

// handleFleet serves the fleet roster and queue state — the operator's
// view of sharding and health.
func (c *Coordinator) handleFleet(w http.ResponseWriter, r *http.Request) {
	type row struct {
		URL      string `json:"url"`
		Down     bool   `json:"down,omitempty"`
		Queued   int    `json:"queued"`
		Inflight int    `json:"inflight"`
		Done     int64  `json:"done"`
	}
	c.mu.Lock()
	rows := make([]row, 0, len(c.workers))
	for _, wk := range c.workers {
		rows = append(rows, row{URL: wk.url, Down: wk.down, Queued: len(wk.queue), Inflight: wk.inflight, Done: wk.done})
	}
	resp := struct {
		Workers []row `json:"workers"`
		Pending int   `json:"pending"`
		Orphans int   `json:"orphans"`
	}{rows, c.pending, len(c.orphans)}
	c.mu.Unlock()
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(resp)
}

// handleCacheGet serves one raw entry envelope from the hub store.
func (c *Coordinator) handleCacheGet(w http.ResponseWriter, r *http.Request) {
	if c.hub == nil {
		httpError(w, http.StatusNotFound, "fleet cache hub disabled (start the coordinator with -cache)")
		return
	}
	data, ok := c.hub.GetEnvelope(r.PathValue("entry"))
	if !ok {
		c.cm.inc(fleetCacheFetchMisses)
		httpError(w, http.StatusNotFound, "no such cache entry")
		return
	}
	c.cm.inc(fleetCacheFetchHits)
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.Itoa(len(data)))
	w.Write(data)
}

// handleCachePut accepts one entry envelope pushed by a worker. The hub
// validates name and checksum; a rejected push is the pusher's bug, never
// hub state.
func (c *Coordinator) handleCachePut(w http.ResponseWriter, r *http.Request) {
	if c.hub == nil {
		httpError(w, http.StatusNotFound, "fleet cache hub disabled (start the coordinator with -cache)")
		return
	}
	data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, c.cfg.MaxBodyBytes))
	if err != nil {
		httpError(w, http.StatusBadRequest, "reading entry: "+err.Error())
		return
	}
	if err := c.hub.PutEnvelope(r.PathValue("entry"), data); err != nil {
		c.cm.inc(fleetCachePutRejects)
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	c.cm.inc(fleetCachePuts)
	w.WriteHeader(http.StatusNoContent)
}

// handleMetrics serves the coordinator's own fleet counters followed by
// the sum of every live worker's /metrics — one scrape sees the fleet as
// a single process.
func (c *Coordinator) handleMetrics(w http.ResponseWriter, r *http.Request) {
	c.mu.Lock()
	var urls []string
	for _, wk := range c.workers {
		if !wk.down {
			urls = append(urls, wk.url)
		}
	}
	pending, live := c.pending, len(urls)
	c.mu.Unlock()

	texts := make([]*promtext.Text, len(urls))
	var wg sync.WaitGroup
	for i, u := range urls {
		wg.Add(1)
		go func(i int, u string) {
			defer wg.Done()
			resp, err := c.probe.Get(u + "/metrics")
			if err != nil {
				c.cm.inc(fleetScrapeErrors)
				return
			}
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil || resp.StatusCode != http.StatusOK {
				c.cm.inc(fleetScrapeErrors)
				return
			}
			t, err := promtext.Parse(string(body))
			if err != nil {
				c.cm.inc(fleetScrapeErrors)
				return
			}
			texts[i] = t
		}(i, u)
	}
	wg.Wait()

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	io.WriteString(w, c.cm.render(pending, c.cfg.Queue, live, texts))
}

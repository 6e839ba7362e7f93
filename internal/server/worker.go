package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/url"
	"time"

	"repro/internal/cachestore"
	"repro/internal/core"
)

// This file is the worker half of the scan fleet (DESIGN.md §12): the
// synchronous scan endpoint the coordinator dispatches to, and the
// fleet-join client that registers a `nchecker serve -coord` worker with
// its coordinator and wires the worker's cache store to the
// coordinator's replication hub.

// handleScanSync admits one scan into the queue POST /scan feeds and
// answers the finished Job record once a queue worker has run it: the
// dispatch surface `nchecker coord` drives. The record never enters the
// job book, since the coordinator owns job bookkeeping, retention and
// retries. A full queue makes the request wait for room instead of
// answering 429, so a coordinator fanning out wider than the worker's
// -jobs budget queues here. Giving up the request (a lost hedge race, a
// dead coordinator) drops the job while it is queued and cancels its
// scan, which ends degraded, once it runs. Shutdown ends the wait with
// a 503.
func (s *Server) handleScanSync(w http.ResponseWriter, r *http.Request) {
	req := readScanRequest(w, r, s.cfg.MaxBodyBytes, s.cfg.JobTimeout, s.cfg.Scan)
	if req == nil {
		return
	}
	job := newJob(req)
	job.req, job.settled = r.Context(), make(chan struct{})
	s.mu.Lock()
	s.book.numberLocked(job, "sync")
	s.mu.Unlock()

	select {
	case s.queue <- job:
		s.admitted(job)
	case <-r.Context().Done():
		httpError(w, http.StatusServiceUnavailable, "canceled while waiting for queue room")
		return
	case <-s.baseCtx.Done():
		httpError(w, http.StatusServiceUnavailable, "server shutting down")
		return
	}
	select {
	case <-job.settled:
	case <-r.Context().Done():
		return // nobody is left to answer; run drops or cancels the job
	case <-s.baseCtx.Done():
		httpError(w, http.StatusServiceUnavailable, "server shutting down")
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(job)
}

// FleetJoin configures a worker's membership in a fleet.
type FleetJoin struct {
	// Coord is the coordinator's base URL (e.g. "http://127.0.0.1:9000").
	Coord string
	// Self is this worker's own base URL, as the coordinator must reach it.
	Self string
	// Logger receives join/replication logs; nil means slog.Default.
	Logger *slog.Logger
}

// JoinFleet registers the worker with its coordinator and, when the scan
// options carry a cache directory, wires the worker's shared cache store
// to the coordinator's replication hub — after this, any fleet member's
// cached whole-app result serves every worker. Registration retries
// briefly (the coordinator may still be starting); failure to join is an
// error so the operator notices, but the worker itself keeps serving
// standalone.
func JoinFleet(cfg FleetJoin, scan core.Options) error {
	if cfg.Logger == nil {
		cfg.Logger = slog.Default()
	}
	coord, err := url.Parse(cfg.Coord)
	if err != nil || coord.Scheme == "" || coord.Host == "" {
		return fmt.Errorf("fleet join: invalid coordinator URL %q", cfg.Coord)
	}
	base := coord.Scheme + "://" + coord.Host

	if scan.CacheDir != "" && scan.CacheMode != core.CacheOff {
		st, err := cachestore.Shared(scan.CacheDir, cachestore.Options{MaxBytes: scan.CacheMaxBytes})
		if err != nil {
			cfg.Logger.Warn("fleet join: cache replication disabled", "error", err.Error())
		} else {
			st.SetReplicator(&httpReplicator{base: base + "/cache/", log: cfg.Logger})
			cfg.Logger.Info("fleet join: cache replication enabled", "hub", base+"/cache/")
		}
	}

	payload, err := json.Marshal(map[string]string{"url": cfg.Self})
	if err != nil {
		return fmt.Errorf("fleet join: %w", err)
	}
	client := &http.Client{Timeout: 5 * time.Second}
	var lastErr error
	for attempt := 0; attempt < 20; attempt++ {
		if attempt > 0 {
			time.Sleep(250 * time.Millisecond)
		}
		resp, err := client.Post(base+"/fleet/register", "application/json", bytes.NewReader(payload))
		if err != nil {
			lastErr = err
			continue
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			cfg.Logger.Info("fleet join: registered", "coordinator", base, "self", cfg.Self)
			return nil
		}
		lastErr = fmt.Errorf("register = %d: %s", resp.StatusCode, bytes.TrimSpace(body))
	}
	return fmt.Errorf("fleet join: coordinator %s unreachable: %w", base, lastErr)
}

// httpReplicator is the worker-side cachestore.Replicator speaking to the
// coordinator's /cache/{entry} hub. Every failure degrades to a miss (nil
// fetch) or a dropped push — replication can only ever add cache hits.
type httpReplicator struct {
	base string // hub URL prefix ending in "/cache/"
	log  *slog.Logger
}

// replClient bounds every replication round trip: a slow or dead hub
// must cost a scan at most this long before it falls back cold.
var replClient = &http.Client{Timeout: 10 * time.Second}

func (h *httpReplicator) Fetch(name string) []byte {
	resp, err := replClient.Get(h.base + name)
	if err != nil {
		return nil
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return nil
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil
	}
	return data
}

func (h *httpReplicator) Push(name string, data []byte) {
	req, err := http.NewRequest(http.MethodPut, h.base+name, bytes.NewReader(data))
	if err != nil {
		return
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	resp, err := replClient.Do(req)
	if err != nil {
		if h.log != nil {
			h.log.Debug("cache push failed", "entry", name, "error", err.Error())
		}
		return
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
}

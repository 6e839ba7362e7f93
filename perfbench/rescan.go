package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net"
	"net/http"
	"os"
	"strings"
	"time"

	"repro/internal/apk"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/promtext"
	"repro/internal/server"
)

// service is an in-process server.Server with jobs = nproc and a
// read-write cache in a fresh directory, behind a loopback listener.
type service struct {
	srv    *server.Server
	hs     *http.Server
	served chan error
	url    string
	client *http.Client
}

// startService starts the server with its cache in a new directory under
// parent; the caller removes parent.
func startService(parent string) (*service, error) {
	cacheDir, err := os.MkdirTemp(parent, "cache-")
	if err != nil {
		return nil, err
	}
	srv := server.New(server.Config{
		Scan: core.Options{CacheDir: cacheDir, CacheMode: core.CacheRW},
		Jobs: nproc(),
		// Job logs are still formatted, and paid for, but not printed.
		Logger: slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	srv.Start()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Shutdown(context.Background())
		return nil, err
	}
	s := &service{
		srv:    srv,
		hs:     &http.Server{Handler: srv.Handler()},
		served: make(chan error, 1),
		url:    "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: nproc(),
			MaxConnsPerHost:     nproc(),
		}},
	}
	go func() { s.served <- s.hs.Serve(ln) }()
	return s, nil
}

// close stops the listener and waits for the serving goroutine and the
// server's workers.
func (s *service) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	s.client.CloseIdleConnections()
	err := s.hs.Shutdown(ctx)
	if serveErr := <-s.served; !errors.Is(serveErr, http.ErrServerClosed) && err == nil {
		err = serveErr
	}
	if shutErr := s.srv.Shutdown(ctx); err == nil {
		err = shutErr
	}
	return err
}

// scan posts one app container to POST /scansync and decodes the job
// record; the latency runs from the request to the decoded report text.
func (s *service) scan(body []byte) (server.Job, time.Duration, error) {
	var job server.Job
	start := time.Now()
	resp, err := s.client.Post(s.url+"/scansync", "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		return job, 0, err
	}
	defer discard(resp.Body)
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return job, 0, fmt.Errorf("POST /scansync: %s: %s", resp.Status, strings.TrimSpace(string(msg)))
	}
	if err := json.NewDecoder(resp.Body).Decode(&job); err != nil {
		return job, 0, fmt.Errorf("decoding the job record: %w", err)
	}
	return job, time.Since(start), nil
}

// scrape reads the server's cumulative counters from GET /metrics.
func (s *service) scrape() (*promtext.Text, error) {
	resp, err := s.client.Get(s.url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer discard(resp.Body)
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: %s", resp.Status)
	}
	return promtext.Parse(string(body))
}

// rescan serves a workload's apps as CI rescans through serve, for the
// traced run's cache and server figures. warm posts every app once to a
// cold cache. A round then sends a seeded mix: unchanged apps
// (result-cache hits) and, with probability editShare, new versions made
// by corpus.AddPadding with a fresh padding count (result misses: the
// app's own classes seed their summaries from the cache, the new padding
// class is summarized, and the result is written back).
type rescan struct {
	svc   *service
	man   *manifest
	bases [][]byte

	// The traced round's request and new-version counts, and the
	// server's counters before it.
	requests, misses int
	prev             *promtext.Text
}

// rescanOp is one request of a round.
type rescanOp struct {
	app  int
	body []byte
	edit bool
}

func newRescan(dir string, man *manifest) (*rescan, error) {
	bases, err := readAll(dir, man)
	if err != nil {
		return nil, err
	}
	svc, err := startService(dir)
	if err != nil {
		return nil, err
	}
	return &rescan{svc: svc, man: man, bases: bases}, nil
}

// version makes a version of app i with k more padding classes.
func (r *rescan) version(i, k int) ([]byte, error) {
	app, err := apk.Decode(r.bases[i])
	if err != nil {
		return nil, err
	}
	corpus.AddPadding(app, r.man.Apps[i].Pad+k)
	return apk.Encode(app)
}

// post serves one request and applies the gate to the job record.
func (r *rescan) post(o rescanOp) (server.Job, time.Duration, error) {
	job, lat, err := r.svc.scan(o.body)
	if err != nil {
		return job, 0, err
	}
	if job.Status != server.StatusDone {
		return job, 0, fmt.Errorf("job %s: %s", job.Status, job.Error)
	}
	return job, lat, check(job.Reports, job.Degraded, job.ReportText, r.man.Apps[o.app].Expect)
}

// warm posts every app once.
func (r *rescan) warm() roundResult {
	return runRound(len(r.bases), func(i int) (time.Duration, error) {
		_, lat, err := r.post(rescanOp{app: i, body: r.bases[i]})
		return lat, err
	})
}

// ops draws the round of requests, as many as there are apps. Making the
// new versions is untimed harness work.
func (r *rescan) ops(rng *rand.Rand) ([]rescanOp, error) {
	ops := make([]rescanOp, len(r.bases))
	edits := make([]int, len(r.bases)) // per app, the new versions made so far
	for n := range ops {
		i := rng.Intn(len(r.bases))
		if rng.Float64() >= editShare {
			ops[n] = rescanOp{app: i, body: r.bases[i]}
			continue
		}
		edits[i]++
		body, err := r.version(i, edits[i])
		if err != nil {
			return nil, err
		}
		ops[n] = rescanOp{app: i, body: body, edit: true}
	}
	return ops, nil
}

// tracedRound times each request's round trip with the server's own job
// span inside it. The split inside the pipeline comes from the server's
// /metrics counters in endTrace.
func (r *rescan) tracedRound(rng *rand.Rand, tr *tracer, acc *accum) (int, opFunc, error) {
	ops, err := r.ops(rng)
	if err != nil {
		return 0, nil, err
	}
	if r.prev, err = r.svc.scrape(); err != nil {
		return 0, nil, err
	}
	r.requests, r.misses = len(ops), 0
	for _, o := range ops {
		if o.edit {
			r.misses++
		}
	}
	return len(ops), func(i int) (time.Duration, error) {
		o := ops[i]
		root := tr.begin()
		start := time.Now()
		job, lat, err := r.post(o)
		if err != nil {
			return 0, err
		}
		jobDur := job.Finished.Sub(*job.Started)
		tr.span("server.job", root, o.app, *job.Started, *job.Finished)
		tr.end(root, o.app, start, start.Add(lat))
		acc.add("server.job_ms", ms(jobDur), 1)
		acc.add("server.overhead_ms", ms(lat-jobDur), 1)
		return lat, nil
	}, nil
}

// endTrace folds the server's cache counters over the traced round into
// acc. Stage times are means per scan that ran the stage: the probe runs
// on every request, the summary seeding and the write only for new
// versions, the result misses. The hit ratio counts every store probe,
// whole-result and per-class summary entries alike; the summaries
// counter counts every summarized method, seeded ones included.
func (r *rescan) endTrace(acc *accum) error {
	cur, err := r.svc.scrape()
	if err != nil {
		return err
	}
	delta := func(series string) float64 {
		a, _ := cur.Value(series)
		b, _ := r.prev.Value(series)
		return a - b
	}
	stage := func(name string) float64 {
		return 1000 * delta(fmt.Sprintf("nchecker_stage_seconds_total{stage=%q}", name))
	}
	requests, misses := float64(r.requests), float64(r.misses)
	acc.add("cache.probe_ms", stage("cacheprobe"), requests)
	acc.add("cache.seed_ms", stage("cacheseed"), misses)
	acc.add("cache.write_ms", stage("cachewrite"), misses)
	acc.add("cache.hit_ratio", delta("nchecker_cache_store_hits_total"), delta("nchecker_cache_store_probes_total"))
	acc.add("cache.seed_ratio", delta("nchecker_cache_summaries_seeded_total"),
		delta("nchecker_cache_summaries_computed_total"))
	acc.add("cache.class_digests", delta("nchecker_cache_class_digests_total"), requests)
	return nil
}

func (r *rescan) close() error { return r.svc.close() }

// discard drains and closes a response body so its connection is reused.
func discard(r io.ReadCloser) {
	io.Copy(io.Discard, r)
	r.Close()
}

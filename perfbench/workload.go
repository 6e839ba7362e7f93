package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// opFunc runs operation i of a round and returns its latency; a non-nil
// error counts the operation as failed.
type opFunc func(i int) (time.Duration, error)

// nproc is the load's concurrency: scan goroutines, or connections to
// serve.
func nproc() int { return runtime.NumCPU() }

// roundResult is one round's wall time, per-operation latencies and
// failures.
type roundResult struct {
	ops      int
	wall     time.Duration
	lat      []time.Duration
	failures []string
}

// runRound runs n operations over nproc closed-loop goroutines, each
// taking the next operation as soon as its previous one completes.
func runRound(n int, op opFunc) roundResult {
	workers := nproc()
	lats := make([][]time.Duration, workers)
	fails := make([][]string, workers)
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				lat, err := op(i)
				if err != nil {
					fails[w] = append(fails[w], fmt.Sprintf("op %d: %v", i, err))
					continue
				}
				lats[w] = append(lats[w], lat)
			}
		}(w)
	}
	wg.Wait()
	r := roundResult{ops: n, wall: time.Since(start)}
	for w := range lats {
		r.lat = append(r.lat, lats[w]...)
		r.failures = append(r.failures, fails[w]...)
	}
	return r
}

// tally adds a round's operations and failures to a child result.
func (c *childResult) tally(r roundResult) {
	c.Attempted += r.ops
	c.Failed += len(r.failures)
	c.Failures = append(c.Failures, r.failures...)
}

// runSetup times one set-up: from building the program's objects through
// one pass over the whole input set.
func runSetup(cfg config, man *manifest) childResult {
	var c childResult
	start := time.Now()
	s := newScan(cfg.dir, man)
	r := s.pass()
	c.SetupS = time.Since(start).Seconds()
	c.tally(r)
	return c
}

// runMeasure sets up untimed, then runs closed-loop rounds until the
// measured time reaches cfg.seconds, and reports the end-to-end metrics
// other than setup_s. Each is a median over rounds of the round's own
// figure: throughput, latency percentiles and peak RSS. The host's other
// tenants slow whole rounds at a time, and a median over rounds shrugs
// off such a round where a figure pooled over the run does not. The peak
// RSS of a whole run, the largest of many garbage-collector overshoots,
// swung by half between runs of the same inputs; its median per round
// does not.
func runMeasure(cfg config, man *manifest) (childResult, error) {
	var c childResult
	s := newScan(cfg.dir, man)
	c.tally(s.pass())
	rng := rand.New(rand.NewSource(cfg.seed))
	var rates, p50s, p90s, peaks []float64
	var measured time.Duration
	for measured.Seconds() < cfg.seconds || len(rates) < minRounds {
		n, op := s.round(rng)
		if err := resetPeakRSS(); err != nil {
			return c, err
		}
		r := runRound(n, op)
		peak, err := peakRSSMB()
		if err != nil {
			return c, err
		}
		c.tally(r)
		measured += r.wall
		lats := make([]float64, len(r.lat))
		for i, l := range r.lat {
			lats[i] = ms(l)
		}
		rates = append(rates, float64(r.ops)/r.wall.Seconds())
		p50s = append(p50s, quantile(lats, 0.5))
		p90s = append(p90s, quantile(lats, 0.9))
		peaks = append(peaks, peak)
	}
	c.Metrics = map[string]metric{
		"apps_per_s":  {median(rates), "1/s"},
		"scan_p50_ms": {median(p50s), "ms"},
		"scan_p90_ms": {median(p90s), "ms"},
		"peak_rss_mb": {median(peaks), "MiB"},
	}
	return c, nil
}

package server

import (
	"fmt"
	"strings"
	"sync"

	"repro/internal/promtext"
)

// coordMetrics is the coordinator's own observability state: fleet
// lifecycle and dispatch counters under nchecker_fleet_*, kept apart from
// the per-scan nchecker_* series the workers own. GET /metrics renders
// these followed by the promtext.Sum of every live worker's scrape, so
// one Prometheus target sees the whole fleet.
type coordMetrics struct {
	mu     sync.Mutex
	counts [numFleetCounters]int64
}

// fleetCounter indexes coordMetrics.counts. The order is the exposition
// order of fleetCounterRows.
type fleetCounter int

const (
	fleetJobsSubmitted fleetCounter = iota
	fleetJobsRejected
	fleetJobsDone
	fleetJobsFailed
	fleetJobsDegraded
	fleetRetries
	fleetDegradedRetries
	fleetHedges
	fleetSteals
	fleetWorkersJoined
	fleetWorkersDown
	fleetCacheFetchHits
	fleetCacheFetchMisses
	fleetCachePuts
	fleetCachePutRejects
	fleetScrapeErrors
	numFleetCounters
)

// fleetCounterRows is the fleet counter catalog: each counter's series
// name, label pair ("" for none) and HELP text. Consecutive rows sharing
// a name are one labeled series family; the HELP of its first row is used.
var fleetCounterRows = [numFleetCounters]struct{ name, label, help string }{
	fleetJobsSubmitted:    {"nchecker_fleet_jobs_submitted_total", "", "Scan jobs admitted by the coordinator."},
	fleetJobsRejected:     {"nchecker_fleet_jobs_rejected_total", "", "Scan jobs rejected by the fleet queue bound."},
	fleetJobsDone:         {"nchecker_fleet_jobs_total", `status="done"`, "Fleet jobs by terminal status."},
	fleetJobsFailed:       {"nchecker_fleet_jobs_total", `status="failed"`, ""},
	fleetJobsDegraded:     {"nchecker_fleet_jobs_degraded_total", "", "Fleet jobs finalized with a degraded result."},
	fleetRetries:          {"nchecker_fleet_retries_total", "", "Dispatch attempts retried on another worker."},
	fleetDegradedRetries:  {"nchecker_fleet_degraded_retries_total", "", "Degraded results retried on another worker."},
	fleetHedges:           {"nchecker_fleet_hedges_total", "", "Slow dispatches speculatively duplicated."},
	fleetSteals:           {"nchecker_fleet_steals_total", "", "Dispatches stolen by idle workers."},
	fleetWorkersJoined:    {"nchecker_fleet_workers_joined_total", "", "Worker registrations accepted."},
	fleetWorkersDown:      {"nchecker_fleet_workers_down_total", "", "Workers marked down after a failed probe."},
	fleetCacheFetchHits:   {"nchecker_fleet_cache_fetch_total", `outcome="hit"`, "Cache hub fetches by outcome."},
	fleetCacheFetchMisses: {"nchecker_fleet_cache_fetch_total", `outcome="miss"`, ""},
	fleetCachePuts:        {"nchecker_fleet_cache_puts_total", `outcome="accepted"`, "Cache hub pushes by outcome."},
	fleetCachePutRejects:  {"nchecker_fleet_cache_puts_total", `outcome="rejected"`, ""},
	fleetScrapeErrors:     {"nchecker_fleet_scrape_errors_total", "", "Worker /metrics scrapes that failed."},
}

func newCoordMetrics() *coordMetrics { return &coordMetrics{} }

// inc counts one fleet event.
func (m *coordMetrics) inc(c fleetCounter) {
	m.mu.Lock()
	m.counts[c]++
	m.mu.Unlock()
}

// render emits the coordinator's Prometheus text: fleet counters and
// gauges first, then the aggregated worker scrape (nil entries are
// workers whose scrape failed this cycle — counted in scrape_errors).
func (m *coordMetrics) render(pending, queueCap, liveWorkers int, workers []*promtext.Text) string {
	var b strings.Builder
	m.mu.Lock()
	for i, row := range fleetCounterRows {
		if i == 0 || fleetCounterRows[i-1].name != row.name {
			fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s counter\n", row.name, row.help, row.name)
		}
		if row.label != "" {
			fmt.Fprintf(&b, "%s{%s} %d\n", row.name, row.label, m.counts[i])
		} else {
			fmt.Fprintf(&b, "%s %d\n", row.name, m.counts[i])
		}
	}
	m.mu.Unlock()

	gauge := func(name, help string, v int) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s gauge\n%s %d\n", name, help, name, name, v)
	}
	gauge("nchecker_fleet_workers_live", "Workers currently accepting dispatches.", liveWorkers)
	gauge("nchecker_fleet_pending", "Dispatches queued fleet-wide.", pending)
	gauge("nchecker_fleet_queue_capacity", "Fleet admission queue bound.", queueCap)

	alive := workers[:0:0]
	for _, t := range workers {
		if t != nil {
			alive = append(alive, t)
		}
	}
	if len(alive) > 0 {
		b.WriteString(promtext.Sum(alive...).Render())
	}
	return b.String()
}

package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"
)

// maxSpans caps the spans kept in memory; later spans are counted, not
// kept.
const maxSpans = 200_000

// span is one timed call at a layer boundary. Spans of one app share its
// App id; Parent is the id of the span that caused it (0 for a root).
type span struct {
	ID, Parent, App int
	Name            string
	Start, End      time.Duration // since the tracer's epoch
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	mu      sync.Mutex
	epoch   time.Time
	spans   []span
	dropped int
	nextID  int
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin reserves the id of an app's root span; end records it once its
// children are recorded.
func (t *tracer) begin() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextID++
	return t.nextID
}

func (t *tracer) end(id, app int, start, end time.Time) { t.record(id, 0, app, "app", start, end) }

// span records a completed call and returns its id.
func (t *tracer) span(name string, parent, app int, start, end time.Time) int {
	t.mu.Lock()
	t.nextID++
	id := t.nextID
	t.mu.Unlock()
	t.record(id, parent, app, name, start, end)
	return id
}

func (t *tracer) record(id, parent, app int, name string, start, end time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) >= maxSpans {
		t.dropped++
		return
	}
	t.spans = append(t.spans, span{ID: id, Parent: parent, App: app, Name: name,
		Start: start.Sub(t.epoch), End: end.Sub(t.epoch)})
}

// write saves the spans as Chrome trace-event JSON (it opens in Perfetto):
// one complete event per span, the app id as the thread.
func (t *tracer) write(path string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	events := make([]event, 0, len(t.spans))
	for _, s := range t.spans {
		events = append(events, event{
			Name: s.Name, Ph: "X", PID: 1, TID: s.App,
			TS:   float64(s.Start) / float64(time.Microsecond),
			Dur:  float64(s.End-s.Start) / float64(time.Microsecond),
			Args: map[string]int{"id": s.ID, "parent": s.Parent, "app": s.App},
		})
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "droppedSpans": t.dropped})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

func traceFile(cfg config) string {
	return filepath.Join(cfg.work, "traces", fmt.Sprintf("%s-seed%d.json", cfg.workload, cfg.seed))
}

// accum sums per-layer values as numerator and denominator pairs, so a
// metric is either a mean (denominator 1 per sample) or a ratio.
type accum struct {
	mu       sync.Mutex
	num, den map[string]float64
}

func newAccum() *accum { return &accum{num: map[string]float64{}, den: map[string]float64{}} }

func (a *accum) add(name string, num, den float64) {
	a.mu.Lock()
	a.num[name] += num
	a.den[name] += den
	a.mu.Unlock()
}

func (a *accum) value(name string) float64 {
	if a.den[name] == 0 {
		return 0
	}
	return a.num[name] / a.den[name]
}

// layerUnits lists the per-layer metrics taken from spans and counters,
// with their units. Times and counts are means per scan that ran the
// layer. Each should move an end-to-end metric:
//
//   - apk.decode_ms: large-apps apps_per_s.
//   - jimple.merge_ms, hierarchy.build_ms, callgraph.build_ms,
//     callgraph.edges, checkers.build_ms: corpus apps_per_s and
//     scan_p50_ms.
//   - checkers.summaries_ms, dataflow.summaries_computed,
//     dataflow.fixpoint_iters, checkers.families_ms,
//     checkers.discover_ms, checkers.cfg_hit_ratio: large-apps apps_per_s
//     and scan_p90_ms.
//   - report.render_ms: scan_p50_ms on both workloads.
//   - cache.*, server.*: the latency of the served rescans (serveLeg);
//     no end-to-end workload runs with the cache on.
//
// runTraced adds go.alloc_kb_per_app, go.gc_pause_ms (per round) and
// proc.cpu_ms_per_app, which move scan_p90_ms and peak_rss_mb on both
// workloads, and trace.overhead_pct.
var layerUnits = map[string]string{
	"apk.decode_ms":               "ms",
	"jimple.merge_ms":             "ms",
	"hierarchy.build_ms":          "ms",
	"callgraph.build_ms":          "ms",
	"callgraph.edges":             "count",
	"checkers.build_ms":           "ms",
	"checkers.summaries_ms":       "ms",
	"checkers.discover_ms":        "ms",
	"checkers.families_ms":        "ms",
	"checkers.cfg_hit_ratio":      "ratio",
	"dataflow.summaries_computed": "count",
	"dataflow.fixpoint_iters":     "count",
	"cache.probe_ms":              "ms",
	"cache.seed_ms":               "ms",
	"cache.write_ms":              "ms",
	"cache.hit_ratio":             "ratio",
	"cache.seed_ratio":            "ratio",
	"cache.class_digests":         "count",
	"report.render_ms":            "ms",
	"server.job_ms":               "ms",
	"server.overhead_ms":          "ms",
}

// runTraced sets up untimed, then alternates an untraced and a traced
// round until the measured time reaches cfg.seconds. The untraced rounds
// give the allocation, GC and CPU figures and the baseline for the
// tracing overhead; the traced rounds give the per-layer figures. The
// workload's apps are then served once through serve as CI rescans, which
// gives the cache and server figures.
func runTraced(cfg config, man *manifest) (childResult, error) {
	var c childResult
	s := newScan(cfg.dir, man)
	c.tally(s.pass())
	rng := rand.New(rand.NewSource(cfg.seed))
	tr := newTracer()
	acc := newAccum()
	var plain, traced []float64
	var plainOps, plainRounds int
	var alloc, pause uint64
	var cpu, measured time.Duration
	var ms0, ms1 runtime.MemStats
	for measured.Seconds() < cfg.seconds || len(traced) < minRounds {
		runtime.ReadMemStats(&ms0)
		cpu0 := cpuTime()
		r := runRound(s.round(rng))
		cpu += cpuTime() - cpu0
		runtime.ReadMemStats(&ms1)
		alloc += ms1.TotalAlloc - ms0.TotalAlloc
		pause += ms1.PauseTotalNs - ms0.PauseTotalNs
		plainOps += r.ops
		plainRounds++
		plain = append(plain, r.wall.Seconds())
		c.tally(r)

		rt := runRound(s.tracedRound(rng, tr, acc))
		traced = append(traced, rt.wall.Seconds())
		c.tally(rt)
		measured += r.wall + rt.wall
	}
	if err := serveLeg(cfg, man, rng, tr, acc, &c); err != nil {
		return c, err
	}
	c.Metrics = map[string]metric{}
	for name, unit := range layerUnits {
		c.Metrics[name] = metric{acc.value(name), unit}
	}
	c.Metrics["go.alloc_kb_per_app"] = metric{float64(alloc) / 1024 / float64(plainOps), "KiB"}
	c.Metrics["go.gc_pause_ms"] = metric{float64(pause) / 1e6 / float64(plainRounds), "ms"}
	c.Metrics["proc.cpu_ms_per_app"] = metric{ms(cpu) / float64(plainOps), "ms"}
	c.Metrics["trace.overhead_pct"] = metric{100 * (median(traced)/median(plain) - 1), "%"}
	return c, tr.write(traceFile(cfg))
}

// serveLeg serves the workload's apps through serve as CI rescans: warm,
// then one traced round of the mix, for the cache and server figures.
func serveLeg(cfg config, man *manifest, rng *rand.Rand, tr *tracer, acc *accum, c *childResult) error {
	r, err := newRescan(cfg.dir, man)
	if err != nil {
		return err
	}
	c.tally(r.warm())
	n, op, err := r.tracedRound(rng, tr, acc)
	if err == nil {
		c.tally(runRound(n, op))
		err = r.endTrace(acc)
	}
	if closeErr := r.close(); err == nil {
		err = closeErr
	}
	return err
}

package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
)

// jobBook is the job registry both front doors keep: a Server for the
// jobs it scans, a Coordinator for the jobs it dispatches. It owns the
// job map and id counter, the retention FIFO, the tombstones of pruned
// ids, and the read endpoints over them (GET /scan/{id}, GET /scans,
// GET /healthz). The owner's mutex guards it: methods ending in Locked
// expect the caller to hold it, the handlers take it themselves.
type jobBook struct {
	mu     *sync.Mutex
	retain int
	jobs   map[string]*Job
	nextID int64
	done   []string // finished job IDs in completion order (retention FIFO)
	// pruned remembers ids the retention FIFO dropped, so GET can answer
	// 410 Gone (expired) instead of 404 (never existed). A long-lived
	// front door prunes without end, so prunedFIFO evicts the oldest
	// tombstones beyond maxTombstones: generous enough that a client
	// polling at a sane cadence sees 410 after its job expires, bounded so
	// memory stays O(Retain).
	pruned        map[string]bool
	prunedFIFO    []string
	maxTombstones int
}

func newJobBook(mu *sync.Mutex, retain int) jobBook {
	return jobBook{
		mu:            mu,
		retain:        retain,
		jobs:          make(map[string]*Job),
		pruned:        make(map[string]bool),
		maxTombstones: max(4*retain, 64),
	}
}

// numberLocked gives job the next id, "<prefix>-N", and its sequence
// number.
func (b *jobBook) numberLocked(job *Job, prefix string) {
	b.nextID++
	job.ID, job.seq = fmt.Sprintf("%s-%d", prefix, b.nextID), b.nextID
}

// addLocked numbers job and enters it for GET /scan/{id} and GET /scans.
func (b *jobBook) addLocked(job *Job) {
	b.numberLocked(job, "job")
	b.jobs[job.ID] = job
}

// retireLocked enters a finished job into the retention FIFO and prunes
// the oldest finished jobs beyond the bound, leaving tombstones. Queued
// and running jobs are never pruned.
func (b *jobBook) retireLocked(id string) {
	b.done = append(b.done, id)
	for len(b.done) > b.retain {
		dropped := b.done[0]
		b.done = b.done[1:]
		delete(b.jobs, dropped)
		b.pruned[dropped] = true
		b.prunedFIFO = append(b.prunedFIFO, dropped)
		if len(b.prunedFIFO) > b.maxTombstones {
			delete(b.pruned, b.prunedFIFO[0])
			b.prunedFIFO = b.prunedFIFO[1:]
		}
	}
}

// mount registers the book's read endpoints on mux.
func (b *jobBook) mount(mux *http.ServeMux) {
	mux.HandleFunc("GET /scan/{id}", b.handleGet)
	mux.HandleFunc("GET /scans", b.handleList)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		io.WriteString(w, "ok\n")
	})
}

// handleGet serves one job's record: 200, 410 for a pruned id, 404 for
// an id never issued (or whose tombstone was evicted).
func (b *jobBook) handleGet(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	b.mu.Lock()
	job, ok := b.jobs[id]
	var snapshot Job
	if ok {
		snapshot = *job
	}
	expired := b.pruned[id]
	b.mu.Unlock()
	switch {
	case ok:
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(&snapshot)
	case expired:
		httpError(w, http.StatusGone, "job expired: its record was pruned by the -retain bound")
	default:
		httpError(w, http.StatusNotFound, "no such job (finished jobs are retained up to the -retain bound)")
	}
}

// handleList serves a compact all-jobs summary, newest first. Only a
// coordinator's jobs carry a worker.
func (b *jobBook) handleList(w http.ResponseWriter, r *http.Request) {
	type row struct {
		ID       string    `json:"id"`
		Name     string    `json:"name,omitempty"`
		Status   JobStatus `json:"status"`
		Warnings int       `json:"warnings"`
		Degraded bool      `json:"degraded,omitempty"`
		Worker   string    `json:"worker,omitempty"`
	}
	b.mu.Lock()
	jobs := make([]*Job, 0, len(b.jobs))
	for _, j := range b.jobs {
		jobs = append(jobs, j)
	}
	sort.Slice(jobs, func(i, k int) bool { return jobs[i].seq > jobs[k].seq })
	rows := make([]row, 0, len(jobs))
	for _, j := range jobs {
		rows = append(rows, row{ID: j.ID, Name: j.Name, Status: j.Status, Warnings: j.Warnings, Degraded: j.Degraded, Worker: j.Worker})
	}
	b.mu.Unlock()
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(rows)
}

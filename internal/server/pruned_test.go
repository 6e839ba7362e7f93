package server

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// frontDoors builds each front door over the same scan API: a Server, and
// a Coordinator with one real worker behind it. Each returns its base URL
// and its job book.
var frontDoors = []struct {
	name  string
	start func(t *testing.T, retain int) (*httptest.Server, *jobBook)
}{
	{"server", func(t *testing.T, retain int) (*httptest.Server, *jobBook) {
		s, ts := newTestServer(t, Config{Retain: retain})
		return ts, &s.book
	}},
	{"coordinator", func(t *testing.T, retain int) (*httptest.Server, *jobBook) {
		c, ts := newTestCoordinator(t, CoordConfig{Retain: retain})
		newFleetWorkerServer(t, c, Config{})
		return ts, &c.book
	}},
}

// TestPrunedJobIs410NotFound404: a polling client must be able to tell an
// expired job ("your report is gone, resubmit") from a wrong id ("you
// never had this job"). Before the tombstone set, both were 404.
func TestPrunedJobIs410NotFound404(t *testing.T) {
	app := fixtureAppBytes(t)
	for _, fd := range frontDoors {
		t.Run(fd.name, func(t *testing.T) {
			ts, _ := fd.start(t, 1)
			first := submit(t, ts, app, "")
			await(t, ts, first)
			second := submit(t, ts, app, "")
			await(t, ts, second)

			code, body := getBody(t, ts.URL+"/scan/"+first)
			if code != http.StatusGone {
				t.Errorf("pruned job = %d, want 410 Gone; body: %s", code, body)
			}
			if !strings.Contains(body, "expired") {
				t.Errorf("410 body should say the job expired, got: %s", body)
			}
			if code, _ := getBody(t, ts.URL+"/scan/"+second); code != http.StatusOK {
				t.Errorf("retained job = %d, want 200", code)
			}
			if code, _ := getBody(t, ts.URL+"/scan/job-never-submitted"); code != http.StatusNotFound {
				t.Errorf("unknown id = %d, want 404", code)
			}
		})
	}
}

// TestTombstoneSetIsBounded: the pruned-id memory must not grow without
// bound on a long-lived front door; it keeps max(4×Retain, 64) ids and
// evicts the oldest first.
func TestTombstoneSetIsBounded(t *testing.T) {
	for _, fd := range frontDoors {
		for _, retain := range []int{1, 40} {
			t.Run(fmt.Sprintf("%s/retain=%d", fd.name, retain), func(t *testing.T) {
				bound := max(4*retain, 64)
				_, b := fd.start(t, retain)
				b.mu.Lock()
				for i := 0; i < retain+bound+10; i++ {
					b.retireLocked(fmt.Sprintf("job-%d", i))
				}
				nTombstones := len(b.pruned)
				oldestEvicted := !b.pruned["job-9"]
				oldestKept := b.pruned["job-10"]
				newestPruned := b.pruned[fmt.Sprintf("job-%d", bound+9)]
				b.mu.Unlock()

				if nTombstones != bound {
					t.Errorf("tombstone set holds %d ids, want the bound %d", nTombstones, bound)
				}
				if !oldestEvicted || !oldestKept {
					t.Errorf("tombstones not evicted oldest first: job-9 evicted=%v, job-10 kept=%v", oldestEvicted, oldestKept)
				}
				if !newestPruned {
					t.Error("recently pruned id lost its tombstone")
				}
			})
		}
	}
}

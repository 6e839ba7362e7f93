package server

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
)

// TestScanRequestRejections sends the same malformed submissions to all
// three scan endpoints — POST /scan and POST /scansync on a worker, POST
// /scan on a coordinator — and pins every status code and JSON error body
// in testdata/scan_request_errors.golden. The three share one parser, so
// each case must also answer identically on every endpoint.
func TestScanRequestRejections(t *testing.T) {
	_, srv := newTestServer(t, Config{MaxBodyBytes: 64})
	_, coord := newTestCoordinator(t, CoordConfig{MaxBodyBytes: 64})
	endpoints := []struct{ name, url string }{
		{"scan", srv.URL + "/scan"},
		{"scansync", srv.URL + "/scansync"},
		{"coord", coord.URL + "/scan"},
	}
	cases := []struct {
		name, query string
		body        []byte
	}{
		{"oversized", "", bytes.Repeat([]byte("x"), 1024)},
		{"empty", "", nil},
		{"bad-timeout", "?timeout=banana", []byte("x")},
		{"bad-validate", "?validate=maybe", []byte("x")},
		{"bad-checkers", "?checkers=99-1", []byte("x")},
	}
	var out strings.Builder
	for _, c := range cases {
		first := ""
		for _, ep := range endpoints {
			resp, err := http.Post(ep.url+c.query, "application/octet-stream", bytes.NewReader(c.body))
			if err != nil {
				t.Fatal(err)
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			got := fmt.Sprintf("%s: %d %s", c.name, resp.StatusCode, body)
			if first == "" {
				first = got
				out.WriteString(got)
			} else if got != first {
				t.Errorf("%s answers %q, %s answered %q", ep.name, got, endpoints[0].name, first)
			}
		}
	}
	checkGolden(t, "scan_request_errors.golden", out.String())
}

package apk_test

import (
	"bytes"
	"testing"

	"repro/internal/apimodel"
	"repro/internal/apk"
	"repro/internal/checkers"
	"repro/internal/corpus"
	"repro/internal/testutil"
)

// TestEncodeLazyAppRoundTrips: a lazily opened app encodes back to the
// bytes it was opened from — on the canonical fixture, on a padded app
// whose padding no scan decodes, and after a scan materialized only part
// of the app. Encode materializes the bodies the open left undecoded; an
// encode of the bare skeleton would drop them.
func TestEncodeLazyAppRoundTrips(t *testing.T) {
	fixture := testutil.MustFixtureApp(t)
	padded, err := apk.Decode(fixture)
	if err != nil {
		t.Fatal(err)
	}
	corpus.AddPadding(padded, 300)
	paddedData, err := apk.Encode(padded)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name    string
		data    []byte
		partial bool
	}{
		{"fixture", fixture, false},
		{"pad300", paddedData, false},
		{"pad300 after a partial scan", paddedData, true},
	} {
		app, err := apk.DecodeLazy(tc.data)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if tc.partial {
			// The scan materializes its demand closure and nothing else.
			if res := checkers.Analyze(app, apimodel.NewRegistry(), checkers.Options{Workers: 1}); res.Incomplete {
				t.Fatalf("%s: scan degraded: %v", tc.name, res.Err())
			}
		}
		got, err := apk.Encode(app)
		if err != nil {
			t.Fatalf("%s: Encode: %v", tc.name, err)
		}
		if !bytes.Equal(got, tc.data) {
			t.Fatalf("%s: Encode(DecodeLazy(data)) is %d bytes, want the %d bytes opened", tc.name, len(got), len(tc.data))
		}
	}
}

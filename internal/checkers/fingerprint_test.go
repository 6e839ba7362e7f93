package checkers

import (
	"bytes"
	"reflect"
	"testing"
)

// fingerprintExempt lists the Options fields that are deliberately NOT
// part of the cache-key fingerprint because they cannot change what a
// cached report would contain:
//
//   - Workers: how many apps a batch caller scans at once; the analysis
//     never reads it;
//   - Timeout: degraded scans are never written to the cache, so the
//     deadline can only suppress a write, never change a written entry;
//   - CacheDir / CacheMode / CacheMaxBytes: they select which store is
//     used and how, not what a scan computes;
//   - unitHook: test-only instrumentation, never set in production;
//   - oracle: test-only and unexported; fingerprinted when set, which
//     TestCacheFingerprintCoversOptions checks by hand.
//
// Every other Options field is presumed report-affecting and must flip the
// fingerprint. To add an Options field: either include it in
// cacheFingerprint (forcing old entries to miss) or, if it provably cannot
// affect reports, add it here with a justification.
var fingerprintExempt = map[string]bool{
	"Workers":       true,
	"Timeout":       true,
	"CacheDir":      true,
	"CacheMode":     true,
	"CacheMaxBytes": true,
	"unitHook":      true,
	"oracle":        true,
}

// TestCacheFingerprintCoversOptions is the completeness gate for the
// hand-listed cacheFingerprint: perturbing any non-exempt Options field
// away from its zero value must change the fingerprint. A future field
// that is neither fingerprinted nor exempted fails here instead of
// silently serving stale cached reports.
func TestCacheFingerprintCoversOptions(t *testing.T) {
	base := Options{}
	baseFP := base.cacheFingerprint()
	typ := reflect.TypeOf(Options{})
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		if fingerprintExempt[f.Name] {
			continue
		}
		var o Options
		fv := reflect.ValueOf(&o).Elem().Field(i)
		if !fv.CanSet() {
			t.Errorf("Options.%s: unexported field is neither exempt nor fingerprintable; exempt it explicitly or export it", f.Name)
			continue
		}
		perturb(t, f.Name, fv)
		if bytes.Equal(o.cacheFingerprint(), baseFP) {
			t.Errorf("Options.%s is not covered by cacheFingerprint: changing it would serve stale cached reports. Add it to the fingerprint or to fingerprintExempt (with a justification).", f.Name)
		}
	}
	if bytes.Equal(OracleOptions(base).cacheFingerprint(), baseFP) {
		t.Error("oracle and engine scans share a cache fingerprint")
	}
}

// perturb sets v to a non-zero value of its kind, failing loudly on kinds
// the test does not know how to flip yet.
func perturb(t *testing.T, name string, v reflect.Value) {
	t.Helper()
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(7)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(7)
	case reflect.String:
		v.SetString("perturbed")
	case reflect.Float32, reflect.Float64:
		v.SetFloat(7)
	default:
		t.Fatalf("Options.%s has kind %s; teach perturb how to flip it", name, v.Kind())
	}
}

// TestCacheFingerprintDistinguishesFields: flipping two different option
// fields must yield two different fingerprints — the fingerprint cannot
// collapse distinct configurations onto one cache entry.
func TestCacheFingerprintDistinguishesFields(t *testing.T) {
	fps := map[string]string{"zero": string(Options{}.cacheFingerprint())}
	typ := reflect.TypeOf(Options{})
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		if fingerprintExempt[f.Name] {
			continue
		}
		var o Options
		perturb(t, f.Name, reflect.ValueOf(&o).Elem().Field(i))
		fp := string(o.cacheFingerprint())
		for prev, prevFP := range fps {
			if fp == prevFP {
				t.Errorf("flipping %s and %s yield one fingerprint %q", f.Name, prev, fp)
			}
		}
		fps[f.Name] = fp
	}
}

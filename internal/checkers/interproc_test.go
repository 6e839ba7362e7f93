package checkers

import (
	"reflect"
	"testing"

	"repro/internal/report"
)

// These tests exercise the interprocedural summary engine end to end:
// default mode consults per-method taint summaries and runs over
// feasibility-pruned CFGs; Options{Intraprocedural: true} is the paper's
// intraprocedural ablation. Each fixture is built so the two modes
// disagree in exactly the dimension under test.

// helperCfgApp configures the client through a static helper: the
// config calls are invisible to the intraprocedural object walk but
// surface through the helper's summary (CallsOn on the bound parameter).
const helperCfgApp = `class t.HelperCfg extends android.app.Activity {
  method onCreate(android.os.Bundle)void {
    local cm android.net.ConnectivityManager
    local ni android.net.NetworkInfo
    local c com.turbomanage.httpclient.BasicHttpClient
    local toast android.widget.Toast
    cm = new android.net.ConnectivityManager
    ni = virtualinvoke cm android.net.ConnectivityManager.getActiveNetworkInfo()android.net.NetworkInfo
    if ni == null goto L2
    c = new com.turbomanage.httpclient.BasicHttpClient
    specialinvoke c com.turbomanage.httpclient.BasicHttpClient.<init>()void
    staticinvoke t.HelperCfg.configure(com.turbomanage.httpclient.BasicHttpClient)void c
    virtualinvoke c com.turbomanage.httpclient.BasicHttpClient.get(java.lang.String)com.turbomanage.httpclient.HttpResponse "https://x"
    return
    L2:
    toast = new android.widget.Toast
    virtualinvoke toast android.widget.Toast.show()void
    return
  }
  method static configure(com.turbomanage.httpclient.BasicHttpClient)void {
    local cl com.turbomanage.httpclient.BasicHttpClient
    cl = param 0 com.turbomanage.httpclient.BasicHttpClient
    virtualinvoke cl com.turbomanage.httpclient.BasicHttpClient.setReadTimeout(int)void 5000
    virtualinvoke cl com.turbomanage.httpclient.BasicHttpClient.setMaxRetries(int)void 2
    return
  }
}`

func TestInterprocHelperConfiguredClient(t *testing.T) {
	res := analyzeSrcOpts(t, helperCfgApp, Options{})
	if len(res.Reports) != 0 {
		t.Errorf("summaries should see the helper-applied config, got: %v", causes(res))
	}
	intra := analyzeSrcOpts(t, helperCfgApp, Options{Intraprocedural: true})
	if countCause(intra, report.CauseNoTimeout) != 1 {
		t.Errorf("intra mode cannot see the helper timeout: %v", causes(intra))
	}
	if countCause(intra, report.CauseNoRetryConfig) != 1 {
		t.Errorf("intra mode cannot see the helper retry config: %v", causes(intra))
	}
}

// factoryApp obtains an already-configured client from a static factory:
// the config rides on the factory summary's CallsOnRet facts.
const factoryApp = `class t.Factory extends android.app.Activity {
  method onCreate(android.os.Bundle)void {
    local cm android.net.ConnectivityManager
    local ni android.net.NetworkInfo
    local c com.turbomanage.httpclient.BasicHttpClient
    local toast android.widget.Toast
    cm = new android.net.ConnectivityManager
    ni = virtualinvoke cm android.net.ConnectivityManager.getActiveNetworkInfo()android.net.NetworkInfo
    if ni == null goto L2
    c = staticinvoke t.Factory.make()com.turbomanage.httpclient.BasicHttpClient
    virtualinvoke c com.turbomanage.httpclient.BasicHttpClient.get(java.lang.String)com.turbomanage.httpclient.HttpResponse "https://x"
    return
    L2:
    toast = new android.widget.Toast
    virtualinvoke toast android.widget.Toast.show()void
    return
  }
  method static make()com.turbomanage.httpclient.BasicHttpClient {
    local cl com.turbomanage.httpclient.BasicHttpClient
    cl = new com.turbomanage.httpclient.BasicHttpClient
    specialinvoke cl com.turbomanage.httpclient.BasicHttpClient.<init>()void
    virtualinvoke cl com.turbomanage.httpclient.BasicHttpClient.setReadTimeout(int)void 3000
    virtualinvoke cl com.turbomanage.httpclient.BasicHttpClient.setMaxRetries(int)void 2
    return cl
  }
}`

func TestInterprocFactoryConfiguredClient(t *testing.T) {
	res := analyzeSrcOpts(t, factoryApp, Options{})
	if len(res.Reports) != 0 {
		t.Errorf("summaries should see the factory-applied config, got: %v", causes(res))
	}
	intra := analyzeSrcOpts(t, factoryApp, Options{Intraprocedural: true})
	if countCause(intra, report.CauseNoTimeout) != 1 || countCause(intra, report.CauseNoRetryConfig) != 1 {
		t.Errorf("intra mode cannot see the factory config: %v", causes(intra))
	}
}

// respHelperApp hands the raw response to a static helper that reads the
// payload without any validity check — a true positive only the helper's
// summary (UncheckedUse on the bound parameter) can witness.
const respHelperApp = `class t.RespHelper extends android.app.Activity {
  method onCreate(android.os.Bundle)void {
    local cm android.net.ConnectivityManager
    local ni android.net.NetworkInfo
    local c com.turbomanage.httpclient.BasicHttpClient
    local r com.turbomanage.httpclient.HttpResponse
    local toast android.widget.Toast
    cm = new android.net.ConnectivityManager
    ni = virtualinvoke cm android.net.ConnectivityManager.getActiveNetworkInfo()android.net.NetworkInfo
    if ni == null goto L2
    c = new com.turbomanage.httpclient.BasicHttpClient
    specialinvoke c com.turbomanage.httpclient.BasicHttpClient.<init>()void
    virtualinvoke c com.turbomanage.httpclient.BasicHttpClient.setReadTimeout(int)void 5000
    virtualinvoke c com.turbomanage.httpclient.BasicHttpClient.setMaxRetries(int)void 2
    r = virtualinvoke c com.turbomanage.httpclient.BasicHttpClient.get(java.lang.String)com.turbomanage.httpclient.HttpResponse "https://x"
    staticinvoke t.RespHelper.show(com.turbomanage.httpclient.HttpResponse)void r
    return
    L2:
    toast = new android.widget.Toast
    virtualinvoke toast android.widget.Toast.show()void
    return
  }
  method static show(com.turbomanage.httpclient.HttpResponse)void {
    local resp com.turbomanage.httpclient.HttpResponse
    local b java.lang.String
    resp = param 0 com.turbomanage.httpclient.HttpResponse
    b = virtualinvoke resp com.turbomanage.httpclient.HttpResponse.getBodyAsString()java.lang.String
    return
  }
}`

func TestInterprocHelperResponseUse(t *testing.T) {
	res := analyzeSrcOpts(t, respHelperApp, Options{})
	if countCause(res, report.CauseNoResponseCheck) != 1 {
		t.Errorf("helper's unchecked payload read should be flagged: %v", causes(res))
	}
	intra := analyzeSrcOpts(t, respHelperApp, Options{Intraprocedural: true})
	if countCause(intra, report.CauseNoResponseCheck) != 0 {
		t.Errorf("intra mode cannot see into the helper (expected FN): %v", causes(intra))
	}
}

// respCheckedHelperApp routes the response through a helper that
// validates it on every path before reading: the helper's
// ValidatedAllPaths fact must satisfy checker 4 — no warning in either
// direction.
const respCheckedHelperApp = `class t.RespChecked extends android.app.Activity {
  method onCreate(android.os.Bundle)void {
    local cm android.net.ConnectivityManager
    local ni android.net.NetworkInfo
    local c com.turbomanage.httpclient.BasicHttpClient
    local r com.turbomanage.httpclient.HttpResponse
    local toast android.widget.Toast
    cm = new android.net.ConnectivityManager
    ni = virtualinvoke cm android.net.ConnectivityManager.getActiveNetworkInfo()android.net.NetworkInfo
    if ni == null goto L2
    c = new com.turbomanage.httpclient.BasicHttpClient
    specialinvoke c com.turbomanage.httpclient.BasicHttpClient.<init>()void
    virtualinvoke c com.turbomanage.httpclient.BasicHttpClient.setReadTimeout(int)void 5000
    virtualinvoke c com.turbomanage.httpclient.BasicHttpClient.setMaxRetries(int)void 2
    r = virtualinvoke c com.turbomanage.httpclient.BasicHttpClient.get(java.lang.String)com.turbomanage.httpclient.HttpResponse "https://x"
    staticinvoke t.RespChecked.show(com.turbomanage.httpclient.HttpResponse)void r
    return
    L2:
    toast = new android.widget.Toast
    virtualinvoke toast android.widget.Toast.show()void
    return
  }
  method static show(com.turbomanage.httpclient.HttpResponse)void {
    local resp com.turbomanage.httpclient.HttpResponse
    local ok boolean
    local b java.lang.String
    resp = param 0 com.turbomanage.httpclient.HttpResponse
    ok = virtualinvoke resp com.turbomanage.httpclient.HttpResponse.isSuccess()boolean
    if ok == 0 goto L1
    b = virtualinvoke resp com.turbomanage.httpclient.HttpResponse.getBodyAsString()java.lang.String
    L1:
    return
  }
}`

func TestInterprocHelperValidatesResponse(t *testing.T) {
	res := analyzeSrcOpts(t, respCheckedHelperApp, Options{})
	if countCause(res, report.CauseNoResponseCheck) != 0 {
		t.Errorf("helper validates on every path — must not warn: %v", causes(res))
	}
}

// prunedApp guards the connectivity check behind a branch whose condition
// folds to a constant: the only check-free path to the request traverses
// a statically-false edge. Path-insensitive analysis warns (a seeded
// false positive); feasibility pruning removes the dead edge and the
// warning with it.
const prunedApp = `class t.Pruned extends android.app.Activity {
  method onCreate(android.os.Bundle)void {
    local flag int
    local cm android.net.ConnectivityManager
    local ni android.net.NetworkInfo
    local c com.turbomanage.httpclient.BasicHttpClient
    local toast android.widget.Toast
    flag = 1
    if flag == 1 goto L1
    goto L2
    L1:
    cm = new android.net.ConnectivityManager
    ni = virtualinvoke cm android.net.ConnectivityManager.getActiveNetworkInfo()android.net.NetworkInfo
    L2:
    c = new com.turbomanage.httpclient.BasicHttpClient
    specialinvoke c com.turbomanage.httpclient.BasicHttpClient.<init>()void
    virtualinvoke c com.turbomanage.httpclient.BasicHttpClient.setReadTimeout(int)void 5000
    virtualinvoke c com.turbomanage.httpclient.BasicHttpClient.setMaxRetries(int)void 2
    virtualinvoke c com.turbomanage.httpclient.BasicHttpClient.get(java.lang.String)com.turbomanage.httpclient.HttpResponse "https://x"
    toast = new android.widget.Toast
    virtualinvoke toast android.widget.Toast.show()void
    return
  }
}`

func TestInterprocPathFeasibilityPruning(t *testing.T) {
	res := analyzeSrcOpts(t, prunedApp, Options{})
	if countCause(res, report.CauseNoConnectivityCheck) != 0 {
		t.Errorf("the check-free path is statically dead — pruning must suppress the FP: %v", causes(res))
	}
	if res.Diagnostics.Cache.PrunedEdges == 0 {
		t.Error("the dead branch edge should be counted in diagnostics")
	}
	intra := analyzeSrcOpts(t, prunedApp, Options{Intraprocedural: true})
	if countCause(intra, report.CauseNoConnectivityCheck) != 1 {
		t.Errorf("the ablation keeps the path-insensitive FP: %v", causes(intra))
	}
}

// volleyHelperDropsError hands the typed error to a helper that logs a
// generic message and never consults it: the helper's summary exposes
// the dropped parameter, so only interprocedural mode flags the missing
// error-type check.
const volleyHelperDropsError = `class t.VDrop extends android.app.Activity {
  method onCreate(android.os.Bundle)void {
    local q com.android.volley.RequestQueue
    local req com.android.volley.toolbox.StringRequest
    local l com.android.volley.Response$Listener
    local e t.VDrop$Err
    local out com.android.volley.Request
    q = new com.android.volley.RequestQueue
    specialinvoke q com.android.volley.RequestQueue.<init>()void
    e = new t.VDrop$Err
    specialinvoke e t.VDrop$Err.<init>()void
    req = new com.android.volley.toolbox.StringRequest
    specialinvoke req com.android.volley.toolbox.StringRequest.<init>(int,java.lang.String,com.android.volley.Response$Listener,com.android.volley.Response$ErrorListener)void 0 "https://x" l e
    out = virtualinvoke q com.android.volley.RequestQueue.add(com.android.volley.Request)com.android.volley.Request req
    return
  }
}
class t.VDrop$Err extends java.lang.Object implements com.android.volley.Response$ErrorListener {
  method <init>()void {
    return
  }
  method onErrorResponse(com.android.volley.VolleyError)void {
    local err com.android.volley.VolleyError
    local toast android.widget.Toast
    err = param 0 com.android.volley.VolleyError
    staticinvoke t.VDrop$Err.log(com.android.volley.VolleyError)void err
    toast = new android.widget.Toast
    virtualinvoke toast android.widget.Toast.show()void
    return
  }
  method static log(com.android.volley.VolleyError)void {
    local e com.android.volley.VolleyError
    local toast android.widget.Toast
    e = param 0 com.android.volley.VolleyError
    toast = new android.widget.Toast
    virtualinvoke toast android.widget.Toast.show()void
    return
  }
}`

// volleyHelperInspectsError is the positive control: the helper type-
// tests the error, so the hand-off counts as an inspection in both modes.
const volleyHelperInspectsError = `class t.VUse extends android.app.Activity {
  method onCreate(android.os.Bundle)void {
    local q com.android.volley.RequestQueue
    local req com.android.volley.toolbox.StringRequest
    local l com.android.volley.Response$Listener
    local e t.VUse$Err
    local out com.android.volley.Request
    q = new com.android.volley.RequestQueue
    specialinvoke q com.android.volley.RequestQueue.<init>()void
    e = new t.VUse$Err
    specialinvoke e t.VUse$Err.<init>()void
    req = new com.android.volley.toolbox.StringRequest
    specialinvoke req com.android.volley.toolbox.StringRequest.<init>(int,java.lang.String,com.android.volley.Response$Listener,com.android.volley.Response$ErrorListener)void 0 "https://x" l e
    out = virtualinvoke q com.android.volley.RequestQueue.add(com.android.volley.Request)com.android.volley.Request req
    return
  }
}
class t.VUse$Err extends java.lang.Object implements com.android.volley.Response$ErrorListener {
  method <init>()void {
    return
  }
  method onErrorResponse(com.android.volley.VolleyError)void {
    local err com.android.volley.VolleyError
    local toast android.widget.Toast
    err = param 0 com.android.volley.VolleyError
    staticinvoke t.VUse$Err.inspect(com.android.volley.VolleyError)void err
    toast = new android.widget.Toast
    virtualinvoke toast android.widget.Toast.show()void
    return
  }
  method static inspect(com.android.volley.VolleyError)void {
    local e com.android.volley.VolleyError
    local isNoConn boolean
    local toast android.widget.Toast
    e = param 0 com.android.volley.VolleyError
    isNoConn = instanceof com.android.volley.NoConnectionError e
    toast = new android.widget.Toast
    virtualinvoke toast android.widget.Toast.show()void
    return
  }
}`

func TestInterprocErrorObjectThroughHelper(t *testing.T) {
	res := analyzeSrcOpts(t, volleyHelperDropsError, Options{})
	if countCause(res, report.CauseNoErrorTypeCheck) != 1 {
		t.Errorf("helper drops the error — summaries should flag it: %v", causes(res))
	}
	intra := analyzeSrcOpts(t, volleyHelperDropsError, Options{Intraprocedural: true})
	if countCause(intra, report.CauseNoErrorTypeCheck) != 0 {
		t.Errorf("intra mode treats any hand-off as an inspection: %v", causes(intra))
	}

	res = analyzeSrcOpts(t, volleyHelperInspectsError, Options{})
	if countCause(res, report.CauseNoErrorTypeCheck) != 0 {
		t.Errorf("helper inspects the error — must not warn: %v", causes(res))
	}
	intra = analyzeSrcOpts(t, volleyHelperInspectsError, Options{Intraprocedural: true})
	if countCause(intra, report.CauseNoErrorTypeCheck) != 0 {
		t.Errorf("positive control must stay clean in the ablation too: %v", causes(intra))
	}
}

// TestInterprocDeterministic re-runs the full interprocedural pipeline
// (summaries + pruning) over all fixture apps: reports, stats, and
// summary-engine counters must be byte-identical across two scans.
func TestInterprocDeterministic(t *testing.T) {
	combined := helperCfgApp + "\n" + factoryApp + "\n" + respHelperApp + "\n" +
		prunedApp + "\n" + volleyHelperDropsError
	base := analyzeSrcQuiet(combined, Options{})
	res := analyzeSrcQuiet(combined, Options{})
	if got, want := renderAll(res), renderAll(base); got != want {
		t.Errorf("reports differ between two scans\n--- first ---\n%s\n--- again ---\n%s", want, got)
	}
	if !reflect.DeepEqual(res.Stats, base.Stats) {
		t.Errorf("stats differ: %+v vs %+v", res.Stats, base.Stats)
	}
	if res.Diagnostics.Cache.SummariesComputed != base.Diagnostics.Cache.SummariesComputed ||
		res.Diagnostics.Cache.SummarySCCs != base.Diagnostics.Cache.SummarySCCs ||
		res.Diagnostics.Cache.PrunedEdges != base.Diagnostics.Cache.PrunedEdges {
		t.Errorf("summary counters differ: %+v vs %+v", res.Diagnostics.Cache, base.Diagnostics.Cache)
	}
}

// TestIntraAblationStrictlyFewerFlows is the acceptance gate: across the
// fixture corpus the interprocedural engine must find strictly more true
// flows than the ablation on at least two apps while the ablation carries
// at least one false positive that pruning removes.
func TestIntraAblationStrictlyFewerFlows(t *testing.T) {
	inter := analyzeSrcQuiet(respHelperApp, Options{})
	intra := analyzeSrcQuiet(respHelperApp, Options{Intraprocedural: true})
	if countCause(inter, report.CauseNoResponseCheck) <= countCause(intra, report.CauseNoResponseCheck) {
		t.Error("app 1: interprocedural mode should find strictly more response-use flows")
	}
	interV := analyzeSrcQuiet(volleyHelperDropsError, Options{})
	intraV := analyzeSrcQuiet(volleyHelperDropsError, Options{Intraprocedural: true})
	if countCause(interV, report.CauseNoErrorTypeCheck) <= countCause(intraV, report.CauseNoErrorTypeCheck) {
		t.Error("app 2: interprocedural mode should find strictly more dropped-error flows")
	}
	interP := analyzeSrcQuiet(prunedApp, Options{})
	intraP := analyzeSrcQuiet(prunedApp, Options{Intraprocedural: true})
	if countCause(intraP, report.CauseNoConnectivityCheck) != 1 || countCause(interP, report.CauseNoConnectivityCheck) != 0 {
		t.Error("pruning should remove the seeded conn-check false positive")
	}
}

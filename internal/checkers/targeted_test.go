package checkers

import (
	"reflect"
	"testing"

	"repro/internal/android"
	"repro/internal/apimodel"
	"repro/internal/apk"
	"repro/internal/jimple"
)

// assertModesAgree scans src twice — the whole-program oracle and the
// engine, each over a lazily opened encode of the app — and requires
// byte-identical reports and stats from both. It returns the engine's
// result and app for closure-counter assertions.
func assertModesAgree(t *testing.T, src string, man *android.Manifest, opts Options) (*Result, *apk.App) {
	t.Helper()
	reg := apimodel.NewRegistry()
	if man == nil {
		man = &android.Manifest{Package: "test.app"}
	}
	man.Normalize()
	mkApp := func() *apk.App {
		prog := jimple.MustParse(src)
		if err := prog.Validate(); err != nil {
			t.Fatalf("fixture invalid: %v", err)
		}
		return openApp(man, prog)
	}
	oracle := Analyze(mkApp(), reg, OracleOptions(opts))
	if oracle.Incomplete {
		t.Fatalf("oracle scan incomplete: %+v", oracle.Diagnostics.Errors)
	}
	app := mkApp()
	res := Analyze(app, reg, opts)
	if res.Incomplete {
		t.Errorf("engine scan incomplete: %+v", res.Diagnostics.Errors)
	}
	if !reflect.DeepEqual(res.Reports, oracle.Reports) {
		t.Errorf("engine reports differ from the oracle:\noracle: %+v\nengine: %+v",
			oracle.Reports, res.Reports)
	}
	if !reflect.DeepEqual(res.Stats, oracle.Stats) {
		t.Errorf("engine stats differ from the oracle:\noracle: %+v\nengine: %+v",
			oracle.Stats, res.Stats)
	}
	return res, app
}

// Config tainting through a helper callee: the helper is not a summary
// root, so the closure's forward rule must still demand it (its summary
// feeds the config discovery at the request site).
const helperConfigTargeted = `class t.Helper extends android.app.Activity {
  method onCreate(android.os.Bundle)void {
    local c com.turbomanage.httpclient.BasicHttpClient
    local r com.turbomanage.httpclient.HttpResponse
    c = new com.turbomanage.httpclient.BasicHttpClient
    specialinvoke c com.turbomanage.httpclient.BasicHttpClient.<init>()void
    staticinvoke t.Conf.tune(com.turbomanage.httpclient.BasicHttpClient)void c
    r = virtualinvoke c com.turbomanage.httpclient.BasicHttpClient.get(java.lang.String)com.turbomanage.httpclient.HttpResponse "https://x"
    return
  }
}
class t.Conf extends java.lang.Object {
  method static tune(com.turbomanage.httpclient.BasicHttpClient)void {
    local c com.turbomanage.httpclient.BasicHttpClient
    c = param 0 com.turbomanage.httpclient.BasicHttpClient
    virtualinvoke c com.turbomanage.httpclient.BasicHttpClient.setReadTimeout(int)void 5000
    return
  }
}`

// helperRequestApp makes its request in a helper class: only the
// backward caller rule demands the Activity whose entry point reaches it.
const helperRequestApp = `class t.Screen extends android.app.Activity {
  method onCreate(android.os.Bundle)void {
    staticinvoke t.Net.fetch()void
    return
  }
}
class t.Net extends java.lang.Object {
  method static fetch()void {
    local c com.turbomanage.httpclient.BasicHttpClient
    local r com.turbomanage.httpclient.HttpResponse
    c = new com.turbomanage.httpclient.BasicHttpClient
    specialinvoke c com.turbomanage.httpclient.BasicHttpClient.<init>()void
    r = virtualinvoke c com.turbomanage.httpclient.BasicHttpClient.get(java.lang.String)com.turbomanage.httpclient.HttpResponse "https://x"
    return
  }
}`

// endpointOnlyApp names a cleartext, hardcoded-IP endpoint without
// making a request: only the endpoint seed rule demands it.
const endpointOnlyApp = `class t.Cfg extends android.app.Activity {
  method onCreate(android.os.Bundle)void {
    local u java.net.URL
    u = new java.net.URL
    specialinvoke u java.net.URL.<init>(java.lang.String)void "http://10.0.0.1/api"
    return
  }
}`

// postedToastApp notifies the user from a Runnable its error callback
// posts to a Handler: only the forward async-dispatch rule demands the
// Runnable's class.
const postedToastApp = `class t.PAct extends android.app.Activity {
  method onCreate(android.os.Bundle)void {
    local q com.android.volley.RequestQueue
    local req com.android.volley.toolbox.StringRequest
    local l com.android.volley.Response$Listener
    local e t.PAct$Err
    local out com.android.volley.Request
    q = new com.android.volley.RequestQueue
    specialinvoke q com.android.volley.RequestQueue.<init>()void
    e = new t.PAct$Err
    specialinvoke e t.PAct$Err.<init>()void
    req = new com.android.volley.toolbox.StringRequest
    specialinvoke req com.android.volley.toolbox.StringRequest.<init>(int,java.lang.String,com.android.volley.Response$Listener,com.android.volley.Response$ErrorListener)void 0 "https://x" l e
    out = virtualinvoke q com.android.volley.RequestQueue.add(com.android.volley.Request)com.android.volley.Request req
    return
  }
}
class t.PAct$Err extends java.lang.Object implements com.android.volley.Response$ErrorListener {
  method <init>()void {
    return
  }
  method onErrorResponse(com.android.volley.VolleyError)void {
    local h android.os.Handler
    local r t.PAct$Show
    local ok boolean
    h = new android.os.Handler
    r = new t.PAct$Show
    ok = virtualinvoke h android.os.Handler.post(java.lang.Runnable)boolean r
    return
  }
}
class t.PAct$Show extends java.lang.Object implements java.lang.Runnable {
  method run()void {
    local toast android.widget.Toast
    toast = new android.widget.Toast
    virtualinvoke toast android.widget.Toast.show()void
    return
  }
}`

func TestTargetedMatchesFullOnFixtures(t *testing.T) {
	fixtures := []struct{ name, src string }{
		{"bare-request", uncheckedActivity},
		{"well-behaved", wellBehavedActivity},
		{"wrong-object-config", wrongObjectConfig},
		{"async-task-notified", asyncTaskNotified},
		{"async-task-silent", asyncTaskSilent},
		{"volley-callbacks", volleyCallbacks},
		{"volley-error-type", volleyErrorTypeUsed},
		{"retry-loop", retryLoopNoBackoff},
		{"helper-config", helperConfigTargeted},
		{"okhttp-callback-response", okHttpCallbackResponse},
		{"okhttp-callback-checked", okHttpCallbackChecked},
		{"volley-helper-drops-error", volleyHelperDropsError},
		{"helper-request", helperRequestApp},
		{"endpoint-only", endpointOnlyApp},
		{"posted-toast", postedToastApp},
	}
	for _, f := range fixtures {
		t.Run(f.name, func(t *testing.T) {
			res, _ := assertModesAgree(t, f.src, nil, Options{})
			if res.Diagnostics.Targeted.ClosureMethods == 0 {
				t.Error("closure empty on an app with request sites")
			}
			if res.Diagnostics.Targeted.ClassesDecoded == 0 {
				t.Error("no classes demanded on an app with request sites")
			}
		})
	}
}

// TestTargetedDeterministicAcrossWorkers: a scan runs on one goroutine, so
// the only ordering left to vary is scan against scan; two targeted scans of
// the same app must agree with the oracle and with each other, closure
// sizes included.
func TestTargetedDeterministicAcrossWorkers(t *testing.T) {
	first, _ := assertModesAgree(t, asyncTaskNotified, nil, Options{})
	again, _ := assertModesAgree(t, asyncTaskNotified, nil, Options{})
	if got, want := renderAll(again), renderAll(first); got != want {
		t.Errorf("targeted reports differ between two scans:\n--- first ---\n%s--- again ---\n%s", want, got)
	}
	if !reflect.DeepEqual(again.Diagnostics.Targeted, first.Diagnostics.Targeted) {
		t.Errorf("closure counters differ between two scans:\nfirst: %+v\nagain: %+v",
			first.Diagnostics.Targeted, again.Diagnostics.Targeted)
	}
}

// paddedTargetedApp carries classes no closure rule can reach: the engine
// must skip them and still report identically.
const paddedTargetedApp = uncheckedActivity + `
class t.Junk extends java.lang.Object {
  method static noise()void {
    staticinvoke t.Junk.quiet()void
    return
  }
  method static quiet()void {
    return
  }
}`

func TestTargetedSkipsIrrelevantClasses(t *testing.T) {
	res, lazyApp := assertModesAgree(t, paddedTargetedApp, nil, Options{})
	ts := res.Diagnostics.Targeted
	if ts.ClassesSkipped < 1 {
		t.Errorf("padding class not skipped: %+v", ts)
	}
	if ts.ClassesDecoded < 1 {
		t.Errorf("request class not decoded: %+v", ts)
	}
	// The skipped class's bodies must never have been decoded on the
	// lazy path — that is the work the closure exists to avoid.
	if m := lazyApp.Program.Class("t.Junk").MethodNamed("noise"); m == nil || m.HasBody() {
		t.Error("irrelevant class was materialized")
	}
	if m := lazyApp.Program.Class("t.Main").MethodNamed("onCreate"); m == nil || !m.HasBody() {
		t.Error("demanded class was not materialized")
	}
}

// noNetworkTargetedApp has no network code at all: the closure is empty,
// nothing is decoded, and neither engine nor oracle reports anything.
const noNetworkTargetedApp = `class t.Pure extends android.app.Activity {
  method onCreate(android.os.Bundle)void {
    local x int
    x = 1
    return
  }
}`

func TestTargetedEmptyClosure(t *testing.T) {
	res, _ := assertModesAgree(t, noNetworkTargetedApp, nil, Options{})
	ts := res.Diagnostics.Targeted
	if ts.SeedMethods != 0 || ts.ClosureMethods != 0 || ts.ClassesDecoded != 0 {
		t.Errorf("closure not empty: %+v", ts)
	}
	if ts.ClassesSkipped != 1 {
		t.Errorf("ClassesSkipped = %d, want 1", ts.ClassesSkipped)
	}
	if res.Diagnostics.AppMethods != 0 {
		t.Errorf("the scan still collected %d methods", res.Diagnostics.AppMethods)
	}
}

// iccTargetedApp exercises all three ICC closure rules: a launcher whose
// connectivity check guards a startActivity (rule i + explicit-intent
// rule ii), and a broadcast-based failure notification received by a
// manifest-declared receiver (rule iii).
const iccTargetedApp = `class t.Launch extends android.app.Activity {
  method onCreate(android.os.Bundle)void {
    local self t.Launch
    local cm android.net.ConnectivityManager
    local ni android.net.NetworkInfo
    local intent android.content.Intent
    self = this t.Launch
    cm = new android.net.ConnectivityManager
    ni = virtualinvoke cm android.net.ConnectivityManager.getActiveNetworkInfo()android.net.NetworkInfo
    if ni == null goto L1
    intent = new android.content.Intent
    virtualinvoke intent android.content.Intent.setClassName(java.lang.String)void "t.Fetcher"
    virtualinvoke self android.app.Activity.startActivity(android.content.Intent)void intent
    L1:
    return
  }
}
class t.Fetcher extends android.app.Activity {
  method onCreate(android.os.Bundle)void {
    local self t.Fetcher
    local c com.turbomanage.httpclient.BasicHttpClient
    local r com.turbomanage.httpclient.HttpResponse
    local fail android.content.Intent
    self = this t.Fetcher
    c = new com.turbomanage.httpclient.BasicHttpClient
    specialinvoke c com.turbomanage.httpclient.BasicHttpClient.<init>()void
    r = virtualinvoke c com.turbomanage.httpclient.BasicHttpClient.get(java.lang.String)com.turbomanage.httpclient.HttpResponse "https://x"
    fail = new android.content.Intent
    virtualinvoke self android.app.Activity.sendBroadcast(android.content.Intent)void fail
    return
  }
}
class t.Recv extends android.content.BroadcastReceiver {
  method onReceive(android.content.Context,android.content.Intent)void {
    local toast android.widget.Toast
    toast = new android.widget.Toast
    virtualinvoke toast android.widget.Toast.show()void
    return
  }
}`

func TestTargetedMatchesFullWithICC(t *testing.T) {
	man := &android.Manifest{
		Package:    "t",
		Activities: []string{"t.Launch", "t.Fetcher"},
		Receivers:  []string{"t.Recv"},
	}
	res, _ := assertModesAgree(t, iccTargetedApp, man, Options{EnableICC: true})
	// All three classes are demanded: the fetcher by its target call, the
	// launcher by rule i, the receiver by rule iii.
	if got := res.Diagnostics.Targeted.ClassesDecoded; got != 3 {
		t.Errorf("ClassesDecoded = %d, want 3", got)
	}
	// Without ICC the launcher's conn check is irrelevant and the
	// receiver unreachable — engine and oracle must agree there too.
	assertModesAgree(t, iccTargetedApp, man, Options{})
}

// customCallbackApp implements a callback subsignature no standard
// library registers and makes no network call: only a registry that
// registers the subsig makes it a closure seed.
const customCallbackApp = `class t.Listener extends java.lang.Object {
  method onCustomError(java.lang.Object)void {
    local x int
    x = 1
    return
  }
}`

// TestClosureTablesArePerRegistry pins the per-registry closure-table
// cache: two registries whose callback subsigs differ must seed the
// closure differently, whichever registry a process consulted first.
func TestClosureTablesArePerRegistry(t *testing.T) {
	std := apimodel.NewRegistry()
	libs := apimodel.StandardLibraries()
	libs[len(libs)-1].Callbacks = []apimodel.Callback{{ErrorSubsig: "onCustomError(java.lang.Object)void"}}
	custom := apimodel.NewRegistryOf(libs)
	man := &android.Manifest{Package: "t"}
	man.Normalize()
	records := openApp(man, jimple.MustParse(customCallbackApp)).Lazy.Index()
	for i, tc := range []struct {
		reg  *apimodel.Registry
		want int
	}{{std, 0}, {custom, 1}, {std, 0}, {custom, 1}} {
		if got := computeTargetedClosure(records, tc.reg, man, false).stats.SeedMethods; got != tc.want {
			t.Errorf("scan %d: %d seeds, want %d", i, got, tc.want)
		}
	}
}

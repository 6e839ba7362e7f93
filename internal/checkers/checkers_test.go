package checkers

import (
	"testing"

	"repro/internal/android"
	"repro/internal/apimodel"
	"repro/internal/apk"
	"repro/internal/jimple"
	"repro/internal/report"
)

func analyzeSrc(t *testing.T, src string, man *android.Manifest) *Result {
	t.Helper()
	prog := jimple.MustParse(src)
	if err := prog.Validate(); err != nil {
		t.Fatalf("test app invalid: %v", err)
	}
	if man == nil {
		man = &android.Manifest{Package: "test.app"}
	}
	man.Normalize()
	return Analyze(openApp(man, prog), apimodel.NewRegistry(), Options{})
}

// openApp opens an app built in memory the way every scan opens one: its
// container encoding through apk.DecodeLazy, AnalyzeContext's
// precondition. It panics on an app that does not encode, so helpers
// without a *testing.T can use it too.
func openApp(man *android.Manifest, prog *jimple.Program) *apk.App {
	data, err := apk.Encode(&apk.App{Manifest: man, Program: prog})
	if err != nil {
		panic(err)
	}
	app, err := apk.DecodeLazy(data)
	if err != nil {
		panic(err)
	}
	return app
}

func countCause(res *Result, c report.Cause) int {
	n := 0
	for i := range res.Reports {
		if res.Reports[i].Cause == c {
			n++
		}
	}
	return n
}

// --- Checker 1: request settings -----------------------------------------

const uncheckedActivity = `class t.Main extends android.app.Activity {
  method onCreate(android.os.Bundle)void {
    local c com.turbomanage.httpclient.BasicHttpClient
    local r com.turbomanage.httpclient.HttpResponse
    c = new com.turbomanage.httpclient.BasicHttpClient
    specialinvoke c com.turbomanage.httpclient.BasicHttpClient.<init>()void
    r = virtualinvoke c com.turbomanage.httpclient.BasicHttpClient.get(java.lang.String)com.turbomanage.httpclient.HttpResponse "https://x"
    return
  }
}`

func TestChecker1FlagsBareRequest(t *testing.T) {
	res := analyzeSrc(t, uncheckedActivity, nil)
	if res.Stats.Requests != 1 || res.Stats.UserRequests != 1 {
		t.Fatalf("request discovery: %+v", res.Stats)
	}
	if countCause(res, report.CauseNoConnectivityCheck) != 1 {
		t.Errorf("want 1 conn-check warning, reports: %v", causes(res))
	}
	if countCause(res, report.CauseNoTimeout) != 1 {
		t.Errorf("want 1 timeout warning, reports: %v", causes(res))
	}
	if countCause(res, report.CauseNoRetryConfig) != 1 {
		t.Errorf("want 1 retry-config warning, reports: %v", causes(res))
	}
	if res.Stats.MissConnCheck != 1 || res.Stats.MissTimeout != 1 || res.Stats.MissRetryConfig != 1 {
		t.Errorf("stats wrong: %+v", res.Stats)
	}
}

const wellBehavedActivity = `class t.Good extends android.app.Activity {
  method onCreate(android.os.Bundle)void {
    local cm android.net.ConnectivityManager
    local ni android.net.NetworkInfo
    local c com.turbomanage.httpclient.BasicHttpClient
    local r com.turbomanage.httpclient.HttpResponse
    local ok boolean
    local b java.lang.String
    local toast android.widget.Toast
    cm = new android.net.ConnectivityManager
    ni = virtualinvoke cm android.net.ConnectivityManager.getActiveNetworkInfo()android.net.NetworkInfo
    if ni == null goto L2
    c = new com.turbomanage.httpclient.BasicHttpClient
    specialinvoke c com.turbomanage.httpclient.BasicHttpClient.<init>()void
    virtualinvoke c com.turbomanage.httpclient.BasicHttpClient.setReadTimeout(int)void 5000
    virtualinvoke c com.turbomanage.httpclient.BasicHttpClient.setMaxRetries(int)void 2
    r = virtualinvoke c com.turbomanage.httpclient.BasicHttpClient.get(java.lang.String)com.turbomanage.httpclient.HttpResponse "https://x"
    ok = virtualinvoke r com.turbomanage.httpclient.HttpResponse.isSuccess()boolean
    if ok == 0 goto L2
    b = virtualinvoke r com.turbomanage.httpclient.HttpResponse.getBodyAsString()java.lang.String
    return
    L2:
    toast = new android.widget.Toast
    virtualinvoke toast android.widget.Toast.show()void
    return
  }
}`

func TestChecker1AcceptsWellBehavedApp(t *testing.T) {
	res := analyzeSrc(t, wellBehavedActivity, nil)
	if len(res.Reports) != 0 {
		t.Errorf("well-behaved app should produce no warnings, got: %v", causes(res))
		for i := range res.Reports {
			t.Log(res.Reports[i].Render())
		}
	}
	if res.Stats.Requests != 1 || res.Stats.MissConnCheck != 0 || res.Stats.MissTimeout != 0 {
		t.Errorf("stats wrong: %+v", res.Stats)
	}
}

// Config calls on a *different* client object must not count.
const wrongObjectConfig = `class t.Wrong extends android.app.Activity {
  method onCreate(android.os.Bundle)void {
    local a com.turbomanage.httpclient.BasicHttpClient
    local b com.turbomanage.httpclient.BasicHttpClient
    local r com.turbomanage.httpclient.HttpResponse
    a = new com.turbomanage.httpclient.BasicHttpClient
    specialinvoke a com.turbomanage.httpclient.BasicHttpClient.<init>()void
    virtualinvoke a com.turbomanage.httpclient.BasicHttpClient.setReadTimeout(int)void 5000
    b = new com.turbomanage.httpclient.BasicHttpClient
    specialinvoke b com.turbomanage.httpclient.BasicHttpClient.<init>()void
    r = virtualinvoke b com.turbomanage.httpclient.BasicHttpClient.get(java.lang.String)com.turbomanage.httpclient.HttpResponse "https://x"
    return
  }
}`

func TestChecker1TaintDistinguishesObjects(t *testing.T) {
	res := analyzeSrc(t, wrongObjectConfig, nil)
	if countCause(res, report.CauseNoTimeout) != 1 {
		t.Errorf("timeout on the wrong client must not satisfy the check: %v", causes(res))
	}
	// Ablation: the whole-method scan is fooled.
	prog := jimple.MustParse(wrongObjectConfig)
	man := &android.Manifest{Package: "t"}
	ablated := Analyze(openApp(man, prog), apimodel.NewRegistry(), Options{DisableTaintConfigDiscovery: true})
	if countCause(ablated, report.CauseNoTimeout) != 0 {
		t.Errorf("ablated analysis should (wrongly) accept the unrelated config call")
	}
}

// --- Checker 2: improper parameters ---------------------------------------

const serviceDefaultRetries = `class t.Sync extends android.app.Service {
  method onStartCommand(android.content.Intent,int,int)int {
    local c com.loopj.android.http.AsyncHttpClient
    local h com.loopj.android.http.AsyncHttpResponseHandler
    c = new com.loopj.android.http.AsyncHttpClient
    specialinvoke c com.loopj.android.http.AsyncHttpClient.<init>()void
    h = new com.loopj.android.http.AsyncHttpResponseHandler
    virtualinvoke c com.loopj.android.http.AsyncHttpClient.get(java.lang.String,com.loopj.android.http.AsyncHttpResponseHandler)void "https://x" h
    return 0
  }
}`

func TestChecker2OverRetryInServiceByDefault(t *testing.T) {
	res := analyzeSrc(t, serviceDefaultRetries, &android.Manifest{Package: "t", Services: []string{"t.Sync"}})
	if countCause(res, report.CauseOverRetryService) != 1 {
		t.Fatalf("want over-retry-service, got %v", causes(res))
	}
	var r *report.Report
	for i := range res.Reports {
		if res.Reports[i].Cause == report.CauseOverRetryService {
			r = &res.Reports[i]
		}
	}
	if !r.DefaultCaused {
		t.Error("over-retry should be marked default-caused (AsyncHttp default = 5 retries)")
	}
	if res.Stats.OverRetryService != 1 || res.Stats.OverRetryServiceDefault != 1 {
		t.Errorf("stats wrong: %+v", res.Stats)
	}
}

const postExplicitRetries = `class t.Poster extends android.app.Activity {
  method onCreate(android.os.Bundle)void {
    local c com.turbomanage.httpclient.BasicHttpClient
    local r com.turbomanage.httpclient.HttpResponse
    local body byte[]
    c = new com.turbomanage.httpclient.BasicHttpClient
    specialinvoke c com.turbomanage.httpclient.BasicHttpClient.<init>()void
    virtualinvoke c com.turbomanage.httpclient.BasicHttpClient.setMaxRetries(int)void 3
    r = virtualinvoke c com.turbomanage.httpclient.BasicHttpClient.post(java.lang.String,byte[])com.turbomanage.httpclient.HttpResponse "https://x" body
    return
  }
}`

func TestChecker2OverRetryOnPost(t *testing.T) {
	res := analyzeSrc(t, postExplicitRetries, nil)
	if countCause(res, report.CauseOverRetryPost) != 1 {
		t.Fatalf("want over-retry-post, got %v", causes(res))
	}
	for i := range res.Reports {
		if res.Reports[i].Cause == report.CauseOverRetryPost && res.Reports[i].DefaultCaused {
			t.Error("explicit setMaxRetries(3) must not be default-caused")
		}
	}
}

const noRetryUserRequest = `class t.Zero extends android.app.Activity {
  method onCreate(android.os.Bundle)void {
    local c com.turbomanage.httpclient.BasicHttpClient
    local r com.turbomanage.httpclient.HttpResponse
    c = new com.turbomanage.httpclient.BasicHttpClient
    specialinvoke c com.turbomanage.httpclient.BasicHttpClient.<init>()void
    virtualinvoke c com.turbomanage.httpclient.BasicHttpClient.setMaxRetries(int)void 0
    r = virtualinvoke c com.turbomanage.httpclient.BasicHttpClient.get(java.lang.String)com.turbomanage.httpclient.HttpResponse "https://x"
    return
  }
}`

func TestChecker2NoRetryTimeSensitive(t *testing.T) {
	res := analyzeSrc(t, noRetryUserRequest, nil)
	if countCause(res, report.CauseNoRetryTimeSensitive) != 1 {
		t.Fatalf("want no-retry-time-sensitive, got %v", causes(res))
	}
}

const volleyPostDefault = `class t.VPost extends android.app.Activity {
  method onCreate(android.os.Bundle)void {
    local q com.android.volley.RequestQueue
    local req com.android.volley.toolbox.StringRequest
    local l com.android.volley.Response$Listener
    local e com.android.volley.Response$ErrorListener
    local out com.android.volley.Request
    q = new com.android.volley.RequestQueue
    specialinvoke q com.android.volley.RequestQueue.<init>()void
    req = new com.android.volley.toolbox.StringRequest
    specialinvoke req com.android.volley.toolbox.StringRequest.<init>(int,java.lang.String,com.android.volley.Response$Listener,com.android.volley.Response$ErrorListener)void 1 "https://x" l e
    out = virtualinvoke q com.android.volley.RequestQueue.add(com.android.volley.Request)com.android.volley.Request req
    return
  }
}`

func TestChecker2VolleyPostDetection(t *testing.T) {
	res := analyzeSrc(t, volleyPostDefault, nil)
	// Volley's default retry policy (1 retry) applies to POST: default-
	// caused over-retry.
	if countCause(res, report.CauseOverRetryPost) != 1 {
		t.Fatalf("Volley POST over-retry not detected: %v", causes(res))
	}
	for i := range res.Reports {
		if res.Reports[i].Cause == report.CauseOverRetryPost {
			if !res.Reports[i].DefaultCaused {
				t.Error("Volley POST over-retry should be default-caused")
			}
			if res.Reports[i].Context.HTTPMethod != "POST" {
				t.Errorf("HTTP method not resolved: %q", res.Reports[i].Context.HTTPMethod)
			}
		}
	}
}

// --- Checker 3: failure notification --------------------------------------

const asyncTaskNotified = `class t.Act extends android.app.Activity {
  method onCreate(android.os.Bundle)void {
    local task t.Act$Fetch
    task = new t.Act$Fetch
    specialinvoke task t.Act$Fetch.<init>()void
    virtualinvoke task android.os.AsyncTask.execute()void
    return
  }
}
class t.Act$Fetch extends android.os.AsyncTask {
  method <init>()void {
    return
  }
  method doInBackground()void {
    local c com.turbomanage.httpclient.BasicHttpClient
    local r com.turbomanage.httpclient.HttpResponse
    c = new com.turbomanage.httpclient.BasicHttpClient
    specialinvoke c com.turbomanage.httpclient.BasicHttpClient.<init>()void
    r = virtualinvoke c com.turbomanage.httpclient.BasicHttpClient.get(java.lang.String)com.turbomanage.httpclient.HttpResponse "https://x"
    return
  }
  method onPostExecute()void {
    local toast android.widget.Toast
    toast = new android.widget.Toast
    virtualinvoke toast android.widget.Toast.show()void
    return
  }
}`

func TestChecker3AsyncTaskSiblingNotification(t *testing.T) {
	res := analyzeSrc(t, asyncTaskNotified, nil)
	if countCause(res, report.CauseNoFailureNotification) != 0 {
		t.Errorf("Toast in onPostExecute should satisfy the notification check: %v", causes(res))
	}
	if res.Stats.UserRequests != 1 {
		t.Errorf("request in AsyncTask launched from an Activity should be user-initiated: %+v", res.Stats)
	}
}

const asyncTaskSilent = `class t.Act2 extends android.app.Activity {
  method onCreate(android.os.Bundle)void {
    local task t.Act2$Fetch
    task = new t.Act2$Fetch
    specialinvoke task t.Act2$Fetch.<init>()void
    virtualinvoke task android.os.AsyncTask.execute()void
    return
  }
}
class t.Act2$Fetch extends android.os.AsyncTask {
  method <init>()void {
    return
  }
  method doInBackground()void {
    local c com.turbomanage.httpclient.BasicHttpClient
    local r com.turbomanage.httpclient.HttpResponse
    c = new com.turbomanage.httpclient.BasicHttpClient
    specialinvoke c com.turbomanage.httpclient.BasicHttpClient.<init>()void
    r = virtualinvoke c com.turbomanage.httpclient.BasicHttpClient.get(java.lang.String)com.turbomanage.httpclient.HttpResponse "https://x"
    return
  }
  method onPostExecute()void {
    return
  }
}`

func TestChecker3MissingNotification(t *testing.T) {
	res := analyzeSrc(t, asyncTaskSilent, nil)
	if countCause(res, report.CauseNoFailureNotification) != 1 {
		t.Errorf("silent failure should be flagged: %v", causes(res))
	}
	if res.Stats.UserRequestsNoNotif != 1 {
		t.Errorf("stats wrong: %+v", res.Stats)
	}
}

const volleyCallbacks = `class t.VAct extends android.app.Activity {
  method onCreate(android.os.Bundle)void {
    local q com.android.volley.RequestQueue
    local req com.android.volley.toolbox.StringRequest
    local l com.android.volley.Response$Listener
    local e t.VAct$Err
    local out com.android.volley.Request
    q = new com.android.volley.RequestQueue
    specialinvoke q com.android.volley.RequestQueue.<init>()void
    e = new t.VAct$Err
    specialinvoke e t.VAct$Err.<init>()void
    req = new com.android.volley.toolbox.StringRequest
    specialinvoke req com.android.volley.toolbox.StringRequest.<init>(int,java.lang.String,com.android.volley.Response$Listener,com.android.volley.Response$ErrorListener)void 0 "https://x" l e
    out = virtualinvoke q com.android.volley.RequestQueue.add(com.android.volley.Request)com.android.volley.Request req
    return
  }
}
class t.VAct$Err extends java.lang.Object implements com.android.volley.Response$ErrorListener {
  method <init>()void {
    return
  }
  method onErrorResponse(com.android.volley.VolleyError)void {
    local err com.android.volley.VolleyError
    local toast android.widget.Toast
    err = param 0 com.android.volley.VolleyError
    toast = new android.widget.Toast
    virtualinvoke toast android.widget.Toast.show()void
    return
  }
}`

func TestChecker3VolleyExplicitCallbackWithToast(t *testing.T) {
	res := analyzeSrc(t, volleyCallbacks, nil)
	if countCause(res, report.CauseNoFailureNotification) != 0 {
		t.Errorf("Toast in onErrorResponse should satisfy the check: %v", causes(res))
	}
	if res.Stats.ExplicitCallbackReqs != 1 || res.Stats.ExplicitCallbackNotified != 1 {
		t.Errorf("explicit-callback stats wrong: %+v", res.Stats)
	}
	// The error object is never inspected: error-type warning expected.
	if countCause(res, report.CauseNoErrorTypeCheck) != 1 {
		t.Errorf("ignored error object should be flagged: %v", causes(res))
	}
}

const volleyErrorTypeUsed = `class t.VAct3 extends android.app.Activity {
  method onCreate(android.os.Bundle)void {
    local q com.android.volley.RequestQueue
    local req com.android.volley.toolbox.StringRequest
    local l com.android.volley.Response$Listener
    local e t.VAct3$Err
    local out com.android.volley.Request
    q = new com.android.volley.RequestQueue
    specialinvoke q com.android.volley.RequestQueue.<init>()void
    e = new t.VAct3$Err
    specialinvoke e t.VAct3$Err.<init>()void
    req = new com.android.volley.toolbox.StringRequest
    specialinvoke req com.android.volley.toolbox.StringRequest.<init>(int,java.lang.String,com.android.volley.Response$Listener,com.android.volley.Response$ErrorListener)void 0 "https://x" l e
    out = virtualinvoke q com.android.volley.RequestQueue.add(com.android.volley.Request)com.android.volley.Request req
    return
  }
}
class t.VAct3$Err extends java.lang.Object implements com.android.volley.Response$ErrorListener {
  method <init>()void {
    return
  }
  method onErrorResponse(com.android.volley.VolleyError)void {
    local err com.android.volley.VolleyError
    local isNoConn boolean
    local toast android.widget.Toast
    err = param 0 com.android.volley.VolleyError
    isNoConn = instanceof com.android.volley.NoConnectionError err
    toast = new android.widget.Toast
    virtualinvoke toast android.widget.Toast.show()void
    return
  }
}`

func TestChecker3ErrorTypeInspected(t *testing.T) {
	res := analyzeSrc(t, volleyErrorTypeUsed, nil)
	if countCause(res, report.CauseNoErrorTypeCheck) != 0 {
		t.Errorf("instanceof on the error object should satisfy the check: %v", causes(res))
	}
	if res.Stats.ErrorCallbacks != 1 || res.Stats.ErrorTypeChecked != 1 {
		t.Errorf("error-type stats wrong: %+v", res.Stats)
	}
}

// Background-service requests have no notification obligation.
func TestChecker3SkipsBackgroundRequests(t *testing.T) {
	res := analyzeSrc(t, serviceDefaultRetries, &android.Manifest{Package: "t", Services: []string{"t.Sync"}})
	if countCause(res, report.CauseNoFailureNotification) != 0 {
		t.Errorf("background requests must not demand notifications: %v", causes(res))
	}
}

// --- Checker 4: invalid response -------------------------------------------

const uncheckedResponseUse = `class t.Resp extends android.app.Activity {
  method onCreate(android.os.Bundle)void {
    local c com.turbomanage.httpclient.BasicHttpClient
    local r com.turbomanage.httpclient.HttpResponse
    local b java.lang.String
    c = new com.turbomanage.httpclient.BasicHttpClient
    specialinvoke c com.turbomanage.httpclient.BasicHttpClient.<init>()void
    r = virtualinvoke c com.turbomanage.httpclient.BasicHttpClient.get(java.lang.String)com.turbomanage.httpclient.HttpResponse "https://x"
    b = virtualinvoke r com.turbomanage.httpclient.HttpResponse.getBodyAsString()java.lang.String
    return
  }
}`

func TestChecker4UncheckedUse(t *testing.T) {
	res := analyzeSrc(t, uncheckedResponseUse, nil)
	if countCause(res, report.CauseNoResponseCheck) != 1 {
		t.Fatalf("unchecked response use not flagged: %v", causes(res))
	}
	if res.Stats.RespRequests != 1 || res.Stats.RespMissCheck != 1 {
		t.Errorf("stats wrong: %+v", res.Stats)
	}
}

const nullCheckedResponse = `class t.RespOK extends android.app.Activity {
  method onCreate(android.os.Bundle)void {
    local c com.turbomanage.httpclient.BasicHttpClient
    local r com.turbomanage.httpclient.HttpResponse
    local b java.lang.String
    c = new com.turbomanage.httpclient.BasicHttpClient
    specialinvoke c com.turbomanage.httpclient.BasicHttpClient.<init>()void
    r = virtualinvoke c com.turbomanage.httpclient.BasicHttpClient.get(java.lang.String)com.turbomanage.httpclient.HttpResponse "https://x"
    if r == null goto L1
    b = virtualinvoke r com.turbomanage.httpclient.HttpResponse.getBodyAsString()java.lang.String
    L1:
    return
  }
}`

func TestChecker4NullCheckSatisfies(t *testing.T) {
	res := analyzeSrc(t, nullCheckedResponse, nil)
	if countCause(res, report.CauseNoResponseCheck) != 0 {
		t.Errorf("null-checked response should pass: %v", causes(res))
	}
}

const okHttpCallbackResponse = `class t.OkCb extends java.lang.Object implements com.squareup.okhttp.Callback {
  method <init>()void {
    return
  }
  method onResponse(com.squareup.okhttp.Response)void {
    local resp com.squareup.okhttp.Response
    local b java.lang.String
    resp = param 0 com.squareup.okhttp.Response
    b = virtualinvoke resp com.squareup.okhttp.Response.getBody()java.lang.String
    return
  }
}`

func TestChecker4CallbackResponse(t *testing.T) {
	res := analyzeSrc(t, okHttpCallbackResponse, nil)
	if countCause(res, report.CauseNoResponseCheck) != 1 {
		t.Errorf("unchecked callback response not flagged: %v", causes(res))
	}
}

const okHttpCallbackChecked = `class t.OkCb2 extends java.lang.Object implements com.squareup.okhttp.Callback {
  method <init>()void {
    return
  }
  method onResponse(com.squareup.okhttp.Response)void {
    local resp com.squareup.okhttp.Response
    local ok boolean
    local b java.lang.String
    resp = param 0 com.squareup.okhttp.Response
    ok = virtualinvoke resp com.squareup.okhttp.Response.isSuccessful()boolean
    if ok == 0 goto L1
    b = virtualinvoke resp com.squareup.okhttp.Response.getBody()java.lang.String
    L1:
    return
  }
}`

func TestChecker4IsSuccessfulSatisfies(t *testing.T) {
	res := analyzeSrc(t, okHttpCallbackChecked, nil)
	if countCause(res, report.CauseNoResponseCheck) != 0 {
		t.Errorf("isSuccessful-guarded use should pass: %v", causes(res))
	}
}

// --- Retry loops -----------------------------------------------------------

const retryLoopNoBackoff = `class t.Loop extends android.app.Activity {
  method onCreate(android.os.Bundle)void {
    local c com.turbomanage.httpclient.BasicHttpClient
    local r com.turbomanage.httpclient.HttpResponse
    local done int
    local e java.io.IOException
    c = new com.turbomanage.httpclient.BasicHttpClient
    specialinvoke c com.turbomanage.httpclient.BasicHttpClient.<init>()void
    done = 0
    L0:
    if done != 0 goto L4
    L1:
    r = virtualinvoke c com.turbomanage.httpclient.BasicHttpClient.get(java.lang.String)com.turbomanage.httpclient.HttpResponse "https://x"
    done = 1
    L2:
    goto L0
    L3:
    e = caught
    done = 0
    goto L0
    L4:
    return
    trap L1 L2 L3 java.io.IOException
  }
}`

func TestRetryLoopDetectedAndFlagged(t *testing.T) {
	res := analyzeSrc(t, retryLoopNoBackoff, nil)
	if res.Stats.RetryLoops != 1 {
		t.Fatalf("retry loop not identified: %+v", res.Stats)
	}
	if countCause(res, report.CauseAggressiveRetryLoop) != 1 {
		t.Errorf("aggressive retry loop not flagged: %v", causes(res))
	}
}

const retryLoopWithSleep = `class t.LoopS extends android.app.Activity {
  method onCreate(android.os.Bundle)void {
    local c com.turbomanage.httpclient.BasicHttpClient
    local r com.turbomanage.httpclient.HttpResponse
    local done int
    local e java.io.IOException
    c = new com.turbomanage.httpclient.BasicHttpClient
    specialinvoke c com.turbomanage.httpclient.BasicHttpClient.<init>()void
    done = 0
    L0:
    if done != 0 goto L4
    L1:
    r = virtualinvoke c com.turbomanage.httpclient.BasicHttpClient.get(java.lang.String)com.turbomanage.httpclient.HttpResponse "https://x"
    done = 1
    L2:
    goto L0
    L3:
    e = caught
    done = 0
    staticinvoke java.lang.Thread.sleep(long)void 1000
    goto L0
    L4:
    return
    trap L1 L2 L3 java.io.IOException
  }
}`

func TestRetryLoopWithBackoffNotFlagged(t *testing.T) {
	res := analyzeSrc(t, retryLoopWithSleep, nil)
	if res.Stats.RetryLoops != 1 {
		t.Fatalf("retry loop with sleep should still be identified: %+v", res.Stats)
	}
	if countCause(res, report.CauseAggressiveRetryLoop) != 0 {
		t.Errorf("backoff loop wrongly flagged: %v", causes(res))
	}
}

// A normal loop sending a sequence of requests (exit independent of the
// catch block) must NOT be classified as a retry loop.
const sequenceLoop = `class t.Seq extends android.app.Activity {
  method onCreate(android.os.Bundle)void {
    local c com.turbomanage.httpclient.BasicHttpClient
    local r com.turbomanage.httpclient.HttpResponse
    local i int
    local e java.io.IOException
    c = new com.turbomanage.httpclient.BasicHttpClient
    specialinvoke c com.turbomanage.httpclient.BasicHttpClient.<init>()void
    i = 0
    L0:
    if i >= 10 goto L4
    L1:
    r = virtualinvoke c com.turbomanage.httpclient.BasicHttpClient.get(java.lang.String)com.turbomanage.httpclient.HttpResponse "https://x"
    L2:
    goto L5
    L3:
    e = caught
    L5:
    i = i + 1
    goto L0
    L4:
    return
    trap L1 L2 L3 java.io.IOException
  }
}`

func TestSequenceLoopNotARetryLoop(t *testing.T) {
	res := analyzeSrc(t, sequenceLoop, nil)
	if res.Stats.RetryLoops != 0 {
		t.Errorf("sequence loop misclassified as retry loop: %+v", res.Stats)
	}
}

// --- Report plumbing --------------------------------------------------------

func TestReportsCarryCallStacksAndSuggestions(t *testing.T) {
	res := analyzeSrc(t, uncheckedActivity, &android.Manifest{Package: "t", Activities: []string{"t.Main"}})
	if len(res.Reports) == 0 {
		t.Fatal("no reports")
	}
	for i := range res.Reports {
		r := &res.Reports[i]
		if r.FixSuggestion == "" {
			t.Errorf("report %s lacks a fix suggestion", r.Cause)
		}
		if len(r.Impacts) == 0 {
			t.Errorf("report %s lacks impacts", r.Cause)
		}
		if r.Cause == report.CauseNoConnectivityCheck && len(r.CallStack) == 0 {
			t.Error("conn-check report lacks a call stack")
		}
		if rendered := r.Render(); rendered == "" {
			t.Error("empty rendering")
		}
		if _, err := r.JSON(); err != nil {
			t.Errorf("JSON rendering failed: %v", err)
		}
	}
}

func TestDeadCodeRequestsIgnored(t *testing.T) {
	src := `class t.Dead extends java.lang.Object {
  method helper()void {
    local c com.turbomanage.httpclient.BasicHttpClient
    local r com.turbomanage.httpclient.HttpResponse
    c = new com.turbomanage.httpclient.BasicHttpClient
    specialinvoke c com.turbomanage.httpclient.BasicHttpClient.<init>()void
    r = virtualinvoke c com.turbomanage.httpclient.BasicHttpClient.get(java.lang.String)com.turbomanage.httpclient.HttpResponse "https://x"
    return
  }
}`
	res := analyzeSrc(t, src, nil)
	if res.Stats.Requests != 0 || len(res.Reports) != 0 {
		t.Errorf("unreachable request should be skipped: %+v, %v", res.Stats, causes(res))
	}
}

func causes(res *Result) []report.Cause {
	out := make([]report.Cause, len(res.Reports))
	for i := range res.Reports {
		out[i] = res.Reports[i].Cause
	}
	return out
}

// --- Guard-sensitive connectivity analysis ----------------------------------

const unusedCheckApp = `class t.Unused extends android.app.Activity {
  method onCreate(android.os.Bundle)void {
    local cm android.net.ConnectivityManager
    local ni android.net.NetworkInfo
    local c com.turbomanage.httpclient.BasicHttpClient
    local r com.turbomanage.httpclient.HttpResponse
    cm = new android.net.ConnectivityManager
    ni = virtualinvoke cm android.net.ConnectivityManager.getActiveNetworkInfo()android.net.NetworkInfo
    c = new com.turbomanage.httpclient.BasicHttpClient
    specialinvoke c com.turbomanage.httpclient.BasicHttpClient.<init>()void
    virtualinvoke c com.turbomanage.httpclient.BasicHttpClient.setReadTimeout(int)void 5000
    virtualinvoke c com.turbomanage.httpclient.BasicHttpClient.setMaxRetries(int)void 1
    r = virtualinvoke c com.turbomanage.httpclient.BasicHttpClient.get(java.lang.String)com.turbomanage.httpclient.HttpResponse "https://x"
    return
  }
}`

func analyzeSrcOpts(t *testing.T, src string, opts Options) *Result {
	t.Helper()
	prog := jimple.MustParse(src)
	man := &android.Manifest{Package: "t"}
	man.Normalize()
	return Analyze(openApp(man, prog), apimodel.NewRegistry(), opts)
}

func TestGuardSensitiveOption(t *testing.T) {
	// Default: the unused check satisfies the analysis (path-insensitive).
	res := analyzeSrcOpts(t, unusedCheckApp, Options{})
	if countCause(res, report.CauseNoConnectivityCheck) != 0 {
		t.Errorf("default analysis should accept the unused check: %v", causes(res))
	}
	// Guard-sensitive: the check result never reaches a branch → warn.
	res = analyzeSrcOpts(t, unusedCheckApp, Options{GuardSensitiveConnCheck: true})
	if countCause(res, report.CauseNoConnectivityCheck) != 1 {
		t.Errorf("guard-sensitive analysis should flag the unused check: %v", causes(res))
	}
	// A derived-boolean guard still counts (taint through isConnected).
	res = analyzeSrcOpts(t, wellBehavedActivity, Options{GuardSensitiveConnCheck: true})
	if countCause(res, report.CauseNoConnectivityCheck) != 0 {
		t.Errorf("real guard rejected by guard-sensitive analysis: %v", causes(res))
	}
}

// --- Retry loops through helper calls ----------------------------------------

const indirectRetryLoop = `class t.Indirect extends android.app.Activity {
  method onCreate(android.os.Bundle)void {
    local self t.Indirect
    local done int
    local e java.io.IOException
    self = this t.Indirect
    done = 0
    L0:
    if done != 0 goto L4
    L1:
    virtualinvoke self t.Indirect.send()void
    done = 1
    L2:
    goto L0
    L3:
    e = caught
    done = 0
    goto L0
    L4:
    return
    trap L1 L2 L3 java.io.IOException
  }
  method send()void {
    local c com.turbomanage.httpclient.BasicHttpClient
    local r com.turbomanage.httpclient.HttpResponse
    c = new com.turbomanage.httpclient.BasicHttpClient
    specialinvoke c com.turbomanage.httpclient.BasicHttpClient.<init>()void
    virtualinvoke c com.turbomanage.httpclient.BasicHttpClient.setReadTimeout(int)void 3000
    virtualinvoke c com.turbomanage.httpclient.BasicHttpClient.setMaxRetries(int)void 0
    r = virtualinvoke c com.turbomanage.httpclient.BasicHttpClient.get(java.lang.String)com.turbomanage.httpclient.HttpResponse "https://x"
    return
  }
}`

func TestRetryLoopThroughHelper(t *testing.T) {
	res := analyzeSrc(t, indirectRetryLoop, nil)
	if res.Stats.RetryLoops != 1 {
		t.Errorf("retry loop via a helper call not identified: %+v", res.Stats)
	}
	if countCause(res, report.CauseAggressiveRetryLoop) != 1 {
		t.Errorf("aggressive indirect loop not flagged: %v", causes(res))
	}
}

// --- Retry-slicing ablation ---------------------------------------------------

func TestRetrySlicingAblation(t *testing.T) {
	// With slicing disabled, the sequence loop is misclassified.
	res := analyzeSrcOpts(t, sequenceLoop, Options{DisableRetrySlicing: true})
	if res.Stats.RetryLoops == 0 {
		t.Error("ablated analysis should misclassify the sequence loop")
	}
	res = analyzeSrcOpts(t, sequenceLoop, Options{})
	if res.Stats.RetryLoops != 0 {
		t.Error("full analysis should not misclassify the sequence loop")
	}
}

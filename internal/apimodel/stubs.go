package apimodel

import (
	"sync"

	"repro/internal/jimple"
)

// ResponseUseSigs are methods that read a network response's payload; a
// call on a response object counts as a "use" for Checker 4 (invalid
// response) when it is not a response-checking API.
var ResponseUseSigs = map[string]bool{
	"com.squareup.okhttp.Response.getBody()java.lang.String":                    true,
	"com.squareup.okhttp.Response.getCode()int":                                 true,
	"com.turbomanage.httpclient.HttpResponse.getBodyAsString()java.lang.String": true,
	"com.turbomanage.httpclient.HttpResponse.getStatus()int":                    true,
	"org.apache.http.HttpResponse.getEntity()org.apache.http.HttpEntity":        true,
	"org.apache.http.HttpResponse.getStatusLine()java.lang.String":              true,
	"java.io.InputStream.read()int":                                             true,
}

var (
	stubsOnce sync.Once
	stubsProg *jimple.Program
)

// Stubs returns hierarchy/signature stubs for every annotated library
// class, generated from the registry so the stubs can never drift from the
// annotations. Package baselayer merges it under android.Framework() once
// per process into the frozen layer every app is overlaid on.
//
// The program is built once per process, shared, and frozen (AddClass or
// Merge into it panics). Rebuilding it per scan also rebuilt the registry
// per scan — the batch-mode per-app registry-construction bug the
// RegistryBuilds regression test pins.
func Stubs() *jimple.Program {
	stubsOnce.Do(func() { stubsProg = buildStubs().Freeze() })
	return stubsProg
}

func buildStubs() *jimple.Program {
	p := jimple.NewProgram()
	reg := NewRegistry()

	ensure := func(name string) *jimple.Class {
		if c := p.Class(name); c != nil {
			return c
		}
		c := &jimple.Class{Name: name, Super: jimple.TypeObject}
		p.AddClass(c)
		return c
	}
	addAbstract := func(s jimple.Sig) {
		c := ensure(s.Class)
		if c.Method(s.SubSigKey()) == nil {
			c.AddMethod(&jimple.Method{Sig: s, Abstract: true})
		}
	}
	addCtor := func(class string, params ...string) {
		addAbstract(jimple.Sig{Class: class, Name: "<init>", Params: params, Ret: jimple.TypeVoid})
	}

	for _, l := range reg.Libraries() {
		for _, cls := range l.Classes {
			ensure(cls)
		}
		for _, t := range l.Targets {
			addAbstract(t.Sig)
		}
		for _, c := range l.Configs {
			addAbstract(c.Sig)
		}
		for _, rc := range l.RespChecks {
			addAbstract(rc.Sig)
		}
		for _, cb := range l.Callbacks {
			c := ensure(cb.Iface)
			c.IsIface = true
			c.Super = ""
			for _, sub := range []string{cb.ErrorSubsig, cb.SuccessSubsig} {
				s, err := jimple.ParseSigKey(cb.Iface + "." + sub)
				if err == nil && c.Method(s.SubSigKey()) == nil {
					c.AddMethod(&jimple.Method{Sig: s, Abstract: true})
				}
			}
		}
	}

	for key := range ResponseUseSigs {
		if s, err := jimple.ParseSigKey(key); err == nil {
			addAbstract(s)
		}
	}

	// Constructors apps call.
	addCtor(ClassHttpURLConn)
	addCtor(ClassURL, jimple.TypeString)
	addAbstract(jimple.Sig{Class: ClassURL, Name: "openConnection", Ret: ClassHttpURLConn})
	addCtor(ClassApacheClient)
	addCtor(ClassApacheGet, jimple.TypeString)
	addCtor(ClassApachePost, jimple.TypeString)
	addCtor(ClassVolleyQueue)
	addCtor(ClassOkClient)
	addCtor(ClassOkRequest, jimple.TypeString)
	addCtor(ClassAsyncClient)
	addCtor(ClassBasicClient)
	// Volley StringRequest(method, url, listener, errorListener) — the
	// canonical request constructor; the error listener is how Checker 3
	// associates a Volley request with its failure callback.
	addCtor(ClassVolleyStringReq, "int", jimple.TypeString, ClassVolleyListener, ClassVolleyErrListen)

	// Library-internal hierarchy.
	if c := p.Class(ClassVolleyStringReq); c != nil {
		c.Super = ClassVolleyRequest
	}
	if c := p.Class(ClassApacheGet); c != nil {
		c.Super = ClassApacheRequest
	}
	if c := p.Class(ClassApachePost); c != nil {
		c.Super = ClassApacheRequest
	}
	for _, sub := range []string{ClassVolleyNoConn, ClassVolleyTimeout, ClassVolleyClientErr} {
		if c := p.Class(sub); c != nil {
			c.Super = ClassVolleyError
		}
	}
	if c := p.Class(ClassVolleyError); c != nil {
		c.Super = "java.lang.Exception"
		addAbstract(jimple.Sig{Class: ClassVolleyError, Name: "getMessage", Ret: jimple.TypeString})
	}
	// Volley listener interfaces referenced by the StringRequest ctor.
	for _, ifc := range []string{ClassVolleyListener} {
		c := ensure(ifc)
		c.IsIface = true
		c.Super = ""
	}
	return p
}

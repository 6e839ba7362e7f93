// Package apimodel is NChecker's library-API annotation registry: for each
// of the six most-used mobile HTTP libraries the paper studies
// (HttpURLConnection, Apache HttpClient, Google Volley, OkHttp, Android
// Asynchronous HTTP, and Basic/turbomanage HTTP), it records the target
// APIs that submit network requests, the config APIs that govern request
// reliability (timeouts and retry policies), the response-checking APIs,
// the libraries' default behaviours (paper Table 4), and the
// request-callback interfaces used for failure notification.
//
// The paper's NChecker annotates 14 target APIs, 77 config APIs, and 2
// response-checking APIs (§4.3); this registry carries exactly those
// counts, asserted by tests. The annotated signatures are faithful models
// of the real libraries' surfaces, simplified only where the real flow is
// indirect (e.g. OkHttp's client→call chain is flattened so that config
// and target calls share one receiver, which is what the taint step
// recovers in the real tool).
package apimodel

import (
	"crypto/sha256"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/jimple"
)

// LibKey identifies a library.
type LibKey string

const (
	LibHttpURL   LibKey = "HttpURLConnection"
	LibApache    LibKey = "ApacheHttpClient"
	LibVolley    LibKey = "Volley"
	LibOkHttp    LibKey = "OkHttp"
	LibAsyncHTTP LibKey = "AndroidAsyncHttp"
	LibBasic     LibKey = "BasicHttp"
)

// ConfigKind classifies a config API by the NPD cause it addresses.
type ConfigKind uint8

const (
	// ConfigOther is a config API with no reliability role.
	ConfigOther ConfigKind = iota
	// ConfigTimeout sets a request/connect/read timeout.
	ConfigTimeout
	// ConfigRetry sets the retry policy or count.
	ConfigRetry
)

func (k ConfigKind) String() string {
	switch k {
	case ConfigTimeout:
		return "timeout"
	case ConfigRetry:
		return "retry"
	}
	return "other"
}

// Target describes one request-submitting API.
type Target struct {
	Sig jimple.Sig
	// HTTPMethod is the fixed HTTP method of this API ("GET", "POST", …)
	// or "" when the method is dynamic (e.g. Volley's Request carries it).
	HTTPMethod string
	// ConfigObjArg locates the object config APIs are invoked on:
	// -1 = the receiver of the target call, n ≥ 0 = the n'th argument.
	ConfigObjArg int
	// HandlerArg is the argument index of an explicit response-handler
	// object, or -1 when the API has none.
	HandlerArg int
	// ReturnsResponse reports whether the call returns the response
	// object directly (synchronous APIs).
	ReturnsResponse bool
	// ResponseClass is the library's response type ("" if none).
	ResponseClass string
}

// Config describes one configuration API.
type Config struct {
	Sig  jimple.Sig
	Kind ConfigKind
	// CountArg is the argument carrying the retry count for ConfigRetry
	// APIs (-1 when the API configures retries without a numeric count).
	CountArg int
}

// RespCheck describes a response-validity-checking API.
type RespCheck struct {
	Sig jimple.Sig
}

// Endpoint describes an API call that receives a request URL — the sites
// the endpoint-hygiene checker (Checker 7) constant-propagates URL
// strings into. URL-bearing target APIs and request-object constructors
// both appear here; the set is disjoint from Totals' counts, which stay
// pinned to the paper's 14/77/2.
type Endpoint struct {
	Sig jimple.Sig
	// URLArg is the argument index carrying the URL string.
	URLArg int
}

// Callback describes the request-callback interface of a library.
type Callback struct {
	// Iface is the interface or base class apps implement.
	Iface string
	// ErrorSubsig / SuccessSubsig are the callback subsignatures.
	ErrorSubsig   string
	SuccessSubsig string
	// ErrorArg is the parameter index of the error object in the error
	// callback.
	ErrorArg int
	// ExposesErrorTypes reports whether the error object carries
	// distinguishable error types (paper: only Volley does).
	ExposesErrorTypes bool
}

// Defaults records a library's out-of-the-box behaviour (paper Table 4 and
// §5.2.2): what it tolerates automatically (⋆) versus what developers must
// configure (©).
type Defaults struct {
	// TimeoutMs is the default request timeout; 0 means none (a blocking
	// connect that can take minutes to hit the TCP timeout — Cause 3.1).
	TimeoutMs int
	// Retries is the default automatic retry count.
	Retries int
	// AutoRetryTransient: the library transparently retries transient
	// failures (⋆ in Table 4's "no retry on transient error" row).
	AutoRetryTransient bool
	// RetriesApplyToPost: the default retries are also applied to POST
	// requests (the source of the paper's 98%-of-POST-over-retries-are-
	// default finding, Table 8).
	RetriesApplyToPost bool
	// AutoRespCheck: the library routes invalid responses to the error
	// callback automatically (only Volley).
	AutoRespCheck bool
}

// Library aggregates everything NChecker knows about one library.
type Library struct {
	Key  LibKey
	Name string
	// Classes lists the library's classes; an app "uses" the library when
	// it references any of them.
	Classes []string
	// ThirdParty distinguishes third-party libraries from Android-native
	// ones (paper Table 7 buckets native vs. Volley/AsyncHttp/Basic/OkHttp).
	ThirdParty bool
	// HasRetryAPIs gates the Table 6 "missed retry APIs" evaluation:
	// only apps using retry-capable libraries are evaluated for it.
	HasRetryAPIs bool
	Targets      []Target
	Configs      []Config
	RespChecks   []RespCheck
	Callbacks    []Callback
	// Endpoints lists the URL-receiving APIs (Checker 7). A new slice
	// field is automatically covered by Fingerprint's %+v rendering.
	Endpoints []Endpoint
	Defaults  Defaults
}

// HasTimeoutAPIs reports whether the library exposes timeout config APIs.
func (l *Library) HasTimeoutAPIs() bool {
	for _, c := range l.Configs {
		if c.Kind == ConfigTimeout {
			return true
		}
	}
	return false
}

// HasRespCheckAPIs reports whether the library exposes response-checking
// APIs.
func (l *Library) HasRespCheckAPIs() bool { return len(l.RespChecks) > 0 }

// Registry indexes all annotated libraries for O(1) call-site lookup.
type Registry struct {
	libs          []*Library
	byKey         map[LibKey]*Library
	targetBySig   map[string]targetRef
	configBySig   map[string]configRef
	checkBySig    map[string]LibKey
	endpointBySig map[string]endpointRef
	classToLib    map[string]LibKey

	// sigClasses holds every class that declares at least one annotated
	// signature. The per-sig lookups gate on it before rendering a key:
	// almost every call site queried against the registry misses, and the
	// class-string probe is allocation-free.
	sigClasses map[string]bool

	fpOnce sync.Once
	fp     [sha256.Size]byte

	// memo holds values analyses derive from the annotations (see Memo).
	memo sync.Map
}

type targetRef struct {
	lib *Library
	t   *Target
}

type configRef struct {
	lib *Library
	c   *Config
}

type endpointRef struct {
	lib *Library
	e   *Endpoint
}

// registryBuilds counts Registry constructions process-wide. Batch scans
// must build exactly one registry (one per core.Checker plus the memoized
// stub program's); the regression test for the per-app-rebuild bug pins
// the count.
var registryBuilds atomic.Int64

// RegistryBuilds returns how many registries this process has built.
func RegistryBuilds() int64 { return registryBuilds.Load() }

// NewRegistry builds the registry over the standard six libraries.
func NewRegistry() *Registry {
	return NewRegistryOf(StandardLibraries())
}

// NewRegistryOf builds a registry over the given libraries, which it
// takes ownership of: they must not change afterwards.
func NewRegistryOf(libs []*Library) *Registry {
	registryBuilds.Add(1)
	r := &Registry{
		libs:          libs,
		byKey:         make(map[LibKey]*Library),
		targetBySig:   make(map[string]targetRef),
		configBySig:   make(map[string]configRef),
		checkBySig:    make(map[string]LibKey),
		endpointBySig: make(map[string]endpointRef),
		classToLib:    make(map[string]LibKey),
		sigClasses:    make(map[string]bool),
	}
	for _, l := range libs {
		r.byKey[l.Key] = l
		for i := range l.Targets {
			r.targetBySig[l.Targets[i].Sig.Key()] = targetRef{lib: l, t: &l.Targets[i]}
			r.sigClasses[l.Targets[i].Sig.Class] = true
		}
		for i := range l.Configs {
			r.configBySig[l.Configs[i].Sig.Key()] = configRef{lib: l, c: &l.Configs[i]}
			r.sigClasses[l.Configs[i].Sig.Class] = true
		}
		for i := range l.RespChecks {
			r.checkBySig[l.RespChecks[i].Sig.Key()] = l.Key
			r.sigClasses[l.RespChecks[i].Sig.Class] = true
		}
		for i := range l.Endpoints {
			r.endpointBySig[l.Endpoints[i].Sig.Key()] = endpointRef{lib: l, e: &l.Endpoints[i]}
			r.sigClasses[l.Endpoints[i].Sig.Class] = true
		}
		for _, c := range l.Classes {
			r.classToLib[c] = l.Key
		}
	}
	return r
}

// Memo returns the value build derives from r, building it once per
// registry and key. A registry never changes after construction, so
// tables an analysis derives from its annotations can live as long as it
// does instead of being rebuilt per scan. key should be a value of an
// unexported type of the caller's package; concurrent first calls may
// each run build, and all but one result is dropped.
func (r *Registry) Memo(key any, build func() any) any {
	if v, ok := r.memo.Load(key); ok {
		return v
	}
	v, _ := r.memo.LoadOrStore(key, build())
	return v
}

// Libraries returns the annotated libraries in registration order.
func (r *Registry) Libraries() []*Library { return r.libs }

// Library returns the library with the given key, or nil.
func (r *Registry) Library(k LibKey) *Library { return r.byKey[k] }

// lookup probes one of the per-sig annotation maps. The class gate
// rejects almost every call site without rendering a key; past it, the
// key is rendered into a stack buffer and the map is probed without
// converting it to a string, so a lookup never allocates.
func lookup[V any](r *Registry, m map[string]V, sig jimple.Sig) (V, bool) {
	if !r.sigClasses[sig.Class] {
		var zero V
		return zero, false
	}
	var buf [256]byte
	v, ok := m[string(sig.AppendKey(buf[:0]))]
	return v, ok
}

// TargetOf resolves an invocation to a target API annotation.
func (r *Registry) TargetOf(sig jimple.Sig) (*Library, *Target, bool) {
	ref, ok := lookup(r, r.targetBySig, sig)
	return ref.lib, ref.t, ok
}

// ConfigOf resolves an invocation to a config API annotation.
func (r *Registry) ConfigOf(sig jimple.Sig) (*Library, *Config, bool) {
	ref, ok := lookup(r, r.configBySig, sig)
	return ref.lib, ref.c, ok
}

// EndpointOf resolves an invocation to a URL-receiving API annotation.
func (r *Registry) EndpointOf(sig jimple.Sig) (*Library, *Endpoint, bool) {
	ref, ok := lookup(r, r.endpointBySig, sig)
	return ref.lib, ref.e, ok
}

// IsRespCheck reports whether sig is a response-checking API.
func (r *Registry) IsRespCheck(sig jimple.Sig) bool {
	_, ok := lookup(r, r.checkBySig, sig)
	return ok
}

// LibsUsedBy returns the keys of libraries referenced anywhere in the
// program (by extending/implementing a library class or invoking a library
// method), sorted.
func (r *Registry) LibsUsedBy(p *jimple.Program) []LibKey {
	used := make(map[LibKey]bool)
	note := func(cls string) {
		if k, ok := r.classToLib[cls]; ok {
			used[k] = true
		}
	}
	for _, c := range p.Classes() {
		note(c.Super)
		for _, i := range c.Interfaces {
			note(i)
		}
		for _, m := range c.Methods {
			for _, s := range m.Body {
				if inv, ok := jimple.InvokeOf(s); ok {
					note(inv.Callee.Class)
				}
			}
			for _, l := range m.Locals {
				note(l.Type)
			}
		}
	}
	return sortedLibKeys(used)
}

// LibsUsedByClasses is LibsUsedBy over a pre-collected referenced-class
// set (supertypes, interfaces, invoked classes, local types): the lazy
// decode path gathers those names during its skim — dex.Lazy.RefClasses —
// so library usage resolves without any retained method bodies.
func (r *Registry) LibsUsedByClasses(classes []string) []LibKey {
	used := make(map[LibKey]bool)
	for _, cls := range classes {
		if k, ok := r.classToLib[cls]; ok {
			used[k] = true
		}
	}
	return sortedLibKeys(used)
}

func sortedLibKeys(used map[LibKey]bool) []LibKey {
	out := make([]LibKey, 0, len(used))
	for k := range used {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Totals returns the annotation counts (targets, configs, response
// checks); the paper reports 14, 77, and 2.
func (r *Registry) Totals() (targets, configs, respChecks int) {
	for _, l := range r.libs {
		targets += len(l.Targets)
		configs += len(l.Configs)
		respChecks += len(l.RespChecks)
	}
	return
}

// Fingerprint returns the SHA-256 identity of the registry's entire
// annotation surface — every library's classes, targets, configs,
// response checks, callbacks, and defaults, plus the package-level
// ResponseUseSigs set. It is the registry component of the persistent
// scan cache's keys: editing any annotation changes the fingerprint, so
// results computed under the old model can never be served for the new
// one. Computed once per Registry.
func (r *Registry) Fingerprint() []byte {
	r.fpOnce.Do(func() {
		h := sha256.New()
		for _, l := range r.libs {
			// Library is maps-free (scalars and slices only), so the %+v
			// rendering is deterministic.
			fmt.Fprintf(h, "%+v\n", *l)
		}
		uses := make([]string, 0, len(ResponseUseSigs))
		for k := range ResponseUseSigs {
			uses = append(uses, k)
		}
		sort.Strings(uses)
		for _, k := range uses {
			fmt.Fprintf(h, "use %s\n", k)
		}
		h.Sum(r.fp[:0])
	})
	return r.fp[:]
}

// Package android models the slice of the Android framework that NChecker's
// analyses depend on: component kinds (Activity vs. Service), lifecycle and
// UI callback entry points, asynchronous dispatch constructs (AsyncTask,
// Handler, Thread, listeners), the AndroidManifest, and the framework
// class stubs apps link against.
//
// The real NChecker consumes these facts from the Android SDK jars via
// Soot; here they are encoded directly, which is equivalent for the
// analyses because only names, signatures and the hierarchy matter — the
// framework's code is never analyzed.
package android

import (
	"sort"

	"repro/internal/jimple"
)

// Well-known framework class names.
const (
	ClassObject            = "java.lang.Object"
	ClassActivity          = "android.app.Activity"
	ClassService           = "android.app.Service"
	ClassIntentService     = "android.app.IntentService"
	ClassBroadcastReceiver = "android.content.BroadcastReceiver"
	ClassApplication       = "android.app.Application"
	ClassAsyncTask         = "android.os.AsyncTask"
	ClassHandler           = "android.os.Handler"
	ClassThread            = "java.lang.Thread"
	ClassRunnable          = "java.lang.Runnable"
	ClassTimer             = "java.util.Timer"
	ClassTimerTask         = "java.util.TimerTask"
	ClassView              = "android.view.View"
	ClassOnClickListener   = "android.view.View$OnClickListener"
	ClassContext           = "android.content.Context"
	ClassIntent            = "android.content.Intent"
	ClassBundle            = "android.os.Bundle"
	ClassConnectivityMgr   = "android.net.ConnectivityManager"
	ClassNetworkInfo       = "android.net.NetworkInfo"
	ClassNetwork           = "android.net.Network"
	ClassNetworkCallback   = "android.net.ConnectivityManager$NetworkCallback"

	// UI alert classes — the five classes §4.4.3 of the paper lists as the
	// ways Android apps surface messages to users.
	ClassAlertDialog    = "android.app.AlertDialog"
	ClassDialogFragment = "android.app.DialogFragment"
	ClassToast          = "android.widget.Toast"
	ClassTextView       = "android.widget.TextView"
	ClassImageView      = "android.widget.ImageView"

	ClassIOException     = "java.io.IOException"
	ClassSocketTimeout   = "java.net.SocketTimeoutException"
	ClassException       = "java.lang.Exception"
	ClassRuntimeExc      = "java.lang.RuntimeException"
	ClassNullPointerExc  = "java.lang.NullPointerException"
	ClassInterruptedExc  = "java.lang.InterruptedException"
	ClassString          = jimple.TypeString
	ClassCharSequence    = "java.lang.CharSequence"
	ClassThrowable       = "java.lang.Throwable"
	ClassLog             = "android.util.Log"
	ClassSharedPrefs     = "android.content.SharedPreferences"
	ClassProgressDialog  = "android.app.ProgressDialog"
	ClassNotificationMgr = "android.app.NotificationManager"
)

// UIAlertClasses is the set of classes whose method calls count as showing
// a user-visible message (paper §4.4.3).
var UIAlertClasses = map[string]bool{
	ClassAlertDialog:    true,
	ClassDialogFragment: true,
	ClassToast:          true,
	ClassTextView:       true,
	ClassImageView:      true,
}

// ComponentKind classifies an app class by its role in the Android
// component model.
type ComponentKind uint8

const (
	KindOther ComponentKind = iota
	KindActivity
	KindService
	KindReceiver
	KindApplication
)

func (k ComponentKind) String() string {
	switch k {
	case KindActivity:
		return "Activity"
	case KindService:
		return "Service"
	case KindReceiver:
		return "BroadcastReceiver"
	case KindApplication:
		return "Application"
	}
	return "Other"
}

// Subtyper answers transitive subtype queries; satisfied by
// *hierarchy.Hierarchy. Accepting an interface keeps this package free of
// a dependency cycle.
type Subtyper interface {
	IsSubtype(sub, super string) bool
}

// KindOf classifies cls. Inner classes inherit the kind of their outermost
// enclosing class, matching how NChecker attributes listener callbacks to
// the component that hosts them (paper §4.4.2).
func KindOf(h Subtyper, cls string) ComponentKind {
	k := directKind(h, cls)
	if k != KindOther {
		return k
	}
	if outer := jimple.OuterClass(cls); outer != cls {
		return directKind(h, outer)
	}
	return KindOther
}

func directKind(h Subtyper, cls string) ComponentKind {
	switch {
	case h.IsSubtype(cls, ClassActivity):
		return KindActivity
	case h.IsSubtype(cls, ClassService):
		return KindService
	case h.IsSubtype(cls, ClassBroadcastReceiver):
		return KindReceiver
	case h.IsSubtype(cls, ClassApplication):
		return KindApplication
	}
	return KindOther
}

// lifecycleEntryPoints maps a component base class to the subsignature
// keys of its framework-invoked lifecycle methods.
var lifecycleEntryPoints = map[string][]string{
	ClassActivity: {
		"onCreate(android.os.Bundle)void",
		"onStart()void",
		"onResume()void",
		"onPause()void",
		"onStop()void",
		"onDestroy()void",
		"onRestart()void",
		"onOptionsItemSelected(android.view.MenuItem)boolean",
		"onActivityResult(int,int,android.content.Intent)void",
	},
	ClassService: {
		"onCreate()void",
		"onStartCommand(android.content.Intent,int,int)int",
		"onDestroy()void",
		"onBind(android.content.Intent)android.os.IBinder",
	},
	ClassIntentService: {
		"onHandleIntent(android.content.Intent)void",
	},
	ClassBroadcastReceiver: {
		"onReceive(android.content.Context,android.content.Intent)void",
	},
	ClassApplication: {
		"onCreate()void",
	},
}

// listenerEntryPoints maps a listener interface to the subsignatures the
// framework invokes on registered implementations.
var listenerEntryPoints = map[string][]string{
	ClassOnClickListener:                                                 {"onClick(android.view.View)void"},
	"android.view.View$OnLongClickListener":                              {"onLongClick(android.view.View)boolean"},
	"android.widget.AdapterView$OnItemClickListener":                     {"onItemClick(android.widget.AdapterView,android.view.View,int,long)void"},
	"android.content.SharedPreferences$OnSharedPreferenceChangeListener": {"onSharedPreferenceChanged(android.content.SharedPreferences,java.lang.String)void"},
	"android.text.TextWatcher":                                           {"afterTextChanged(android.text.Editable)void"},
}

// LifecycleSubsigs returns the lifecycle entry subsignatures for the given
// component base class ("" slice when unknown).
func LifecycleSubsigs(base string) []string { return lifecycleEntryPoints[base] }

// ComponentBases returns the component base classes in deterministic order.
// The slice is shared: callers must not modify it.
func ComponentBases() []string { return componentBases }

// ListenerIfaces returns the listener interfaces in deterministic order.
// The slice is shared: callers must not modify it.
func ListenerIfaces() []string { return listenerIfaces }

// componentBases and listenerIfaces are the sorted keys of the entry-point
// tables, computed once per process.
var componentBases, listenerIfaces = sortedKeys(lifecycleEntryPoints), sortedKeys(listenerEntryPoints)

func sortedKeys(m map[string][]string) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// ListenerSubsigs returns the callback subsignatures of a listener
// interface.
func ListenerSubsigs(iface string) []string { return listenerEntryPoints[iface] }

// AsyncDispatch describes a framework call that transfers control to a
// callback on some object: calling Trigger (matched by declaring class +
// subsignature on any subtype) causes the framework to later invoke each
// of CalleeSubsigs on the dispatch target. The target is the receiver when
// ArgIndex < 0, otherwise the ArgIndex'th argument.
type AsyncDispatch struct {
	TriggerClass  string
	TriggerSubsig string
	ArgIndex      int // -1 => receiver
	CalleeSubsigs []string
}

// AsyncDispatches returns the async-dispatch table: the constructs §4.4 of
// the paper names (AsyncTask, Handler, Thread, listener registration,
// Timer). The table is a shared package-level constant — callers must not
// mutate it (call-graph construction queries it once per invoke site, so
// rebuilding it per call was a measurable allocation source).
func AsyncDispatches() []AsyncDispatch { return asyncDispatchTable }

var asyncDispatchTable = []AsyncDispatch{
	{
		TriggerClass:  ClassAsyncTask,
		TriggerSubsig: "execute()void",
		ArgIndex:      -1,
		CalleeSubsigs: []string{
			"onPreExecute()void",
			"doInBackground()void",
			"onPostExecute()void",
		},
	},
	{
		TriggerClass:  ClassThread,
		TriggerSubsig: "start()void",
		ArgIndex:      -1,
		CalleeSubsigs: []string{"run()void"},
	},
	{
		TriggerClass:  ClassHandler,
		TriggerSubsig: "post(java.lang.Runnable)boolean",
		ArgIndex:      0,
		CalleeSubsigs: []string{"run()void"},
	},
	{
		TriggerClass:  ClassHandler,
		TriggerSubsig: "postDelayed(java.lang.Runnable,long)boolean",
		ArgIndex:      0,
		CalleeSubsigs: []string{"run()void"},
	},
	{
		TriggerClass:  ClassView,
		TriggerSubsig: "setOnClickListener(android.view.View$OnClickListener)void",
		ArgIndex:      0,
		CalleeSubsigs: []string{"onClick(android.view.View)void"},
	},
	{
		TriggerClass:  ClassTimer,
		TriggerSubsig: "schedule(java.util.TimerTask,long)void",
		ArgIndex:      0,
		CalleeSubsigs: []string{"run()void"},
	},
	{
		TriggerClass:  ClassTimer,
		TriggerSubsig: "scheduleAtFixedRate(java.util.TimerTask,long,long)void",
		ArgIndex:      0,
		CalleeSubsigs: []string{"run()void"},
	},
}

// ConnectivityCheckSigs lists framework methods whose invocation
// constitutes a network-connectivity check (paper Table 5:
// getNetworkInfo / getActiveNetworkInfo and the NetworkInfo.isConnected
// family).
var ConnectivityCheckSigs = map[string]bool{
	"android.net.ConnectivityManager.getActiveNetworkInfo()android.net.NetworkInfo": true,
	"android.net.ConnectivityManager.getNetworkInfo(int)android.net.NetworkInfo":    true,
	"android.net.NetworkInfo.isConnected()boolean":                                  true,
	"android.net.NetworkInfo.isConnectedOrConnecting()boolean":                      true,
}

// IsConnectivityCheck reports whether sig is a connectivity-check API.
// The class gate runs first so the overwhelmingly common miss never
// renders a signature key, and a hit renders it on the stack.
func IsConnectivityCheck(sig jimple.Sig) bool {
	if sig.Class != ClassConnectivityMgr && sig.Class != ClassNetworkInfo {
		return false
	}
	return inSigSet(ConnectivityCheckSigs, sig)
}

// inSigSet looks sig's key up in set without allocating it: the key is
// rendered into a stack buffer, and a map index by string(bytes) does not
// copy.
func inSigSet(set map[string]bool, sig jimple.Sig) bool {
	var buf [128]byte
	return set[string(sig.AppendKey(buf[:0]))]
}

// NetworkCallbackSubsigs lists the ConnectivityManager.NetworkCallback
// methods the framework invokes on connectivity transitions. Checker 5
// treats implementations as network-state handlers, alongside
// BroadcastReceiver.onReceive.
var NetworkCallbackSubsigs = []string{
	"onAvailable(android.net.Network)void",
	"onLost(android.net.Network)void",
}

// CacheFallbackSigs lists framework methods whose invocation counts as
// reading locally cached content — the offline fallback Checker 5 accepts
// in a network-state handler in place of a retried request.
var CacheFallbackSigs = map[string]bool{
	"android.content.SharedPreferences.getString(java.lang.String,java.lang.String)java.lang.String": true,
	"android.content.SharedPreferences.getInt(java.lang.String,int)int":                              true,
	"android.content.SharedPreferences.getBoolean(java.lang.String,boolean)boolean":                  true,
}

// IsCacheFallback reports whether sig reads cached content.
func IsCacheFallback(sig jimple.Sig) bool {
	return inSigSet(CacheFallbackSigs, sig)
}

// WaitCallSigs lists blocking-wait calls. Checker 6 treats a connectivity
// check separated from its request by one of these as stale: the checked
// state can change while the thread sleeps. Durations are ignored — a
// short sleep also flags, a documented false-positive source.
var WaitCallSigs = map[string]bool{
	"java.lang.Thread.sleep(long)void": true,
}

// IsWaitCall reports whether sig is a blocking wait. Class-gated like
// IsConnectivityCheck: misses must not render keys.
func IsWaitCall(sig jimple.Sig) bool {
	if sig.Class != ClassThread {
		return false
	}
	return inSigSet(WaitCallSigs, sig)
}

// IsUIAlertCall reports whether an invocation of sig counts as displaying
// a user-visible alert (any method on one of the five UI alert classes).
func IsUIAlertCall(sig jimple.Sig) bool {
	return UIAlertClasses[sig.Class]
}

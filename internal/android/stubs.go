package android

import (
	"sync"

	"repro/internal/jimple"
)

var (
	frameworkOnce sync.Once
	frameworkProg *jimple.Program
)

// Framework returns a program containing stub definitions of the framework
// classes apps extend and call. The stubs carry hierarchy information and
// method signatures only — no bodies — which is all the analyses consume.
// Scans do not merge it themselves: package baselayer merges it with the
// library stubs once per process into the frozen layer every app is
// overlaid on. A flat merge under an app's program still works:
//
//	prog.Merge(android.Framework())
//
// The program is built once per process, shared, and frozen: AddClass or
// Merge into it panics, so the shared *Class values can never change.
func Framework() *jimple.Program {
	frameworkOnce.Do(func() { frameworkProg = buildFramework().Freeze() })
	return frameworkProg
}

func buildFramework() *jimple.Program {
	p := jimple.NewProgram()

	cls := func(name, super string, ifaces ...string) *jimple.Class {
		c := &jimple.Class{Name: name, Super: super, Interfaces: ifaces}
		p.AddClass(c)
		return c
	}
	iface := func(name string) *jimple.Class {
		c := &jimple.Class{Name: name, IsIface: true}
		p.AddClass(c)
		return c
	}
	abstractMethod := func(c *jimple.Class, name string, params []string, ret string) {
		c.AddMethod(&jimple.Method{
			Sig:      jimple.Sig{Name: name, Params: params, Ret: ret},
			Abstract: true,
		})
	}

	cls(ClassObject, "")
	cls(ClassThrowable, ClassObject)
	cls(ClassException, ClassThrowable)
	cls(ClassRuntimeExc, ClassException)
	cls(ClassNullPointerExc, ClassRuntimeExc)
	cls(ClassIOException, ClassException)
	cls(ClassSocketTimeout, ClassIOException)
	cls(ClassInterruptedExc, ClassException)
	cls(ClassString, ClassObject)
	iface(ClassCharSequence)
	iface(ClassRunnable)

	thread := cls(ClassThread, ClassObject, ClassRunnable)
	abstractMethod(thread, "start", nil, jimple.TypeVoid)
	abstractMethod(thread, "run", nil, jimple.TypeVoid)
	abstractMethod(thread, "sleep", []string{"long"}, jimple.TypeVoid)

	timer := cls(ClassTimer, ClassObject)
	abstractMethod(timer, "schedule", []string{ClassTimerTask, "long"}, jimple.TypeVoid)
	abstractMethod(timer, "scheduleAtFixedRate", []string{ClassTimerTask, "long", "long"}, jimple.TypeVoid)
	timerTask := cls(ClassTimerTask, ClassObject, ClassRunnable)
	abstractMethod(timerTask, "run", nil, jimple.TypeVoid)

	ctx := cls(ClassContext, ClassObject)
	abstractMethod(ctx, "getSystemService", []string{ClassString}, ClassObject)
	intent := cls(ClassIntent, ClassObject)
	abstractMethod(intent, "setClassName", []string{ClassString}, jimple.TypeVoid)
	abstractMethod(intent, "setAction", []string{ClassString}, jimple.TypeVoid)
	abstractMethod(intent, "putExtra", []string{ClassString, ClassString}, jimple.TypeVoid)
	cls(ClassBundle, ClassObject)

	activity := cls(ClassActivity, ClassContext)
	for _, sub := range LifecycleSubsigs(ClassActivity) {
		sig, _ := jimple.ParseSigKey(ClassActivity + "." + sub)
		activity.AddMethod(&jimple.Method{Sig: sig, Abstract: true})
	}
	abstractMethod(activity, "findViewById", []string{"int"}, ClassView)
	abstractMethod(activity, "startActivity", []string{ClassIntent}, jimple.TypeVoid)
	abstractMethod(activity, "runOnUiThread", []string{ClassRunnable}, jimple.TypeVoid)
	abstractMethod(activity, "sendBroadcast", []string{ClassIntent}, jimple.TypeVoid)

	service := cls(ClassService, ClassContext)
	for _, sub := range LifecycleSubsigs(ClassService) {
		sig, _ := jimple.ParseSigKey(ClassService + "." + sub)
		service.AddMethod(&jimple.Method{Sig: sig, Abstract: true})
	}
	intentService := cls(ClassIntentService, ClassService)
	for _, sub := range LifecycleSubsigs(ClassIntentService) {
		sig, _ := jimple.ParseSigKey(ClassIntentService + "." + sub)
		intentService.AddMethod(&jimple.Method{Sig: sig, Abstract: true})
	}
	receiver := cls(ClassBroadcastReceiver, ClassObject)
	for _, sub := range LifecycleSubsigs(ClassBroadcastReceiver) {
		sig, _ := jimple.ParseSigKey(ClassBroadcastReceiver + "." + sub)
		receiver.AddMethod(&jimple.Method{Sig: sig, Abstract: true})
	}
	app := cls(ClassApplication, ClassContext)
	for _, sub := range LifecycleSubsigs(ClassApplication) {
		sig, _ := jimple.ParseSigKey(ClassApplication + "." + sub)
		app.AddMethod(&jimple.Method{Sig: sig, Abstract: true})
	}

	task := cls(ClassAsyncTask, ClassObject)
	abstractMethod(task, "execute", nil, jimple.TypeVoid)
	abstractMethod(task, "onPreExecute", nil, jimple.TypeVoid)
	abstractMethod(task, "doInBackground", nil, jimple.TypeVoid)
	abstractMethod(task, "onPostExecute", nil, jimple.TypeVoid)
	abstractMethod(task, "cancel", []string{jimple.TypeBoolean}, jimple.TypeBoolean)

	handler := cls(ClassHandler, ClassObject)
	abstractMethod(handler, "post", []string{ClassRunnable}, jimple.TypeBoolean)
	abstractMethod(handler, "postDelayed", []string{ClassRunnable, "long"}, jimple.TypeBoolean)
	abstractMethod(handler, "sendEmptyMessage", []string{"int"}, jimple.TypeBoolean)

	view := cls(ClassView, ClassObject)
	abstractMethod(view, "setOnClickListener", []string{ClassOnClickListener}, jimple.TypeVoid)
	abstractMethod(view, "setVisibility", []string{"int"}, jimple.TypeVoid)
	iface(ClassOnClickListener)
	for _, l := range ListenerIfaces() {
		if p.Class(l) == nil {
			iface(l)
		}
	}

	cm := cls(ClassConnectivityMgr, ClassObject)
	abstractMethod(cm, "getActiveNetworkInfo", nil, ClassNetworkInfo)
	abstractMethod(cm, "getNetworkInfo", []string{"int"}, ClassNetworkInfo)
	abstractMethod(cm, "registerNetworkCallback", []string{ClassNetworkCallback}, jimple.TypeVoid)
	ni := cls(ClassNetworkInfo, ClassObject)
	abstractMethod(ni, "isConnected", nil, jimple.TypeBoolean)
	abstractMethod(ni, "isConnectedOrConnecting", nil, jimple.TypeBoolean)
	cls(ClassNetwork, ClassObject)
	ncb := cls(ClassNetworkCallback, ClassObject)
	for _, sub := range NetworkCallbackSubsigs {
		sig, _ := jimple.ParseSigKey(ClassNetworkCallback + "." + sub)
		ncb.AddMethod(&jimple.Method{Sig: sig, Abstract: true})
	}
	prefs := cls(ClassSharedPrefs, ClassObject)
	abstractMethod(prefs, "getString", []string{ClassString, ClassString}, ClassString)
	abstractMethod(prefs, "getInt", []string{ClassString, "int"}, jimple.TypeInt)
	abstractMethod(prefs, "getBoolean", []string{ClassString, jimple.TypeBoolean}, jimple.TypeBoolean)

	toast := cls(ClassToast, ClassObject)
	abstractMethod(toast, "makeText", []string{ClassContext, ClassCharSequence, "int"}, ClassToast)
	abstractMethod(toast, "show", nil, jimple.TypeVoid)
	tv := cls(ClassTextView, ClassView)
	abstractMethod(tv, "setText", []string{ClassCharSequence}, jimple.TypeVoid)
	iv := cls(ClassImageView, ClassView)
	abstractMethod(iv, "setImageResource", []string{"int"}, jimple.TypeVoid)
	ad := cls(ClassAlertDialog, ClassObject)
	abstractMethod(ad, "show", nil, jimple.TypeVoid)
	df := cls(ClassDialogFragment, ClassObject)
	abstractMethod(df, "show", nil, jimple.TypeVoid)
	pd := cls(ClassProgressDialog, ClassAlertDialog)
	abstractMethod(pd, "dismiss", nil, jimple.TypeVoid)

	logc := cls(ClassLog, ClassObject)
	logc.AddMethod(&jimple.Method{
		Sig:      jimple.Sig{Name: "d", Params: []string{ClassString, ClassString}, Ret: jimple.TypeInt},
		Static:   true,
		Abstract: true,
	})
	logc.AddMethod(&jimple.Method{
		Sig:      jimple.Sig{Name: "e", Params: []string{ClassString, ClassString}, Ret: jimple.TypeInt},
		Static:   true,
		Abstract: true,
	})

	return p
}

// Package platform models the Android platform surface that the GATOR
// reference analysis depends on: the platform class hierarchy (Activity,
// Dialog, View and its widget subclasses, LayoutInflater), the listener
// interfaces with their handler callback signatures, the activity lifecycle
// callback table, and the API model that classifies platform method calls
// into the operation categories of the paper (Inflate1/2, AddView1/2, SetId,
// SetListener, FindView1/2/3).
//
// The paper analyzes the high-level semantics of these APIs rather than
// platform method bodies; this package is the machine-readable form of that
// semantics. Each broad category covers a variety of concrete Android APIs
// ("semantic variations"), encoded here as per-method ApiSpec entries.
package platform

// OpKind is a category of Android GUI operation from Section 3 of the paper.
type OpKind int

const (
	OpNone OpKind = iota
	// OpInflate1 inflates a layout id and returns the root view
	// (LayoutInflater.inflate and friends).
	OpInflate1
	// OpInflate2 inflates a layout id and associates the root with the
	// receiver activity or dialog (setContentView(int)).
	OpInflate2
	// OpAddView1 associates an existing view with the receiver activity or
	// dialog as its content root (setContentView(View)).
	OpAddView1
	// OpAddView2 makes the argument view a child of the receiver view
	// (ViewGroup.addView variants).
	OpAddView2
	// OpSetId associates a view id with the receiver view (View.setId).
	OpSetId
	// OpSetListener associates a listener with the receiver view
	// (View.setOnClickListener and friends).
	OpSetListener
	// OpFindView1 searches the hierarchy rooted at the receiver view for a
	// descendant with the argument view id (View.findViewById).
	OpFindView1
	// OpFindView2 searches the receiver activity's (or dialog's) content
	// hierarchy for a view with the argument id (Activity.findViewById).
	OpFindView2
	// OpFindView3 retrieves some descendant view with a run-time property
	// (findFocus, getCurrentView, getChildAt, ...).
	OpFindView3
	// OpSetIntentTarget associates an intent with its target component
	// class (Intent construction and Intent.setClass). An inter-component
	// extension beyond the paper, motivated by its Section 6.
	OpSetIntentTarget
	// OpStartActivity launches the activities targeted by the argument
	// intent (Activity.startActivity).
	OpStartActivity
	// OpFindParent retrieves the parent of the receiver view
	// (View.getParent); the inverse of the parent-child relation.
	OpFindParent
	// OpMenuAdd creates a menu item in the receiver menu (Menu.add(int));
	// part of the options-menu extension.
	OpMenuAdd
	// OpSetAdapter binds a list adapter to an AdapterView
	// (AdapterView.setAdapter); the views the adapter's getView returns
	// become children of the receiver.
	OpSetAdapter
	// OpRemoveView detaches a child (ViewGroup.removeView/removeAllViews).
	// The static relations are monotone over-approximations, so the
	// analysis treats removal as a no-op; the interpreter performs it.
	OpRemoveView
	// OpFindMenuItem retrieves the menu item carrying the argument item id
	// from the receiver menu (Menu.findItem); the menu-space analogue of
	// findViewById.
	OpFindMenuItem
	// OpShowDialog makes the receiver dialog visible (Dialog.show). The
	// static relations are monotone, so showing is a no-op for the solver;
	// the ordering checkers read the operation's position in the lifecycle.
	OpShowDialog
	// OpDismissDialog hides the receiver dialog (Dialog.dismiss); a no-op
	// for the monotone solver, like OpRemoveView.
	OpDismissDialog
)

var opKindNames = [...]string{
	OpNone:            "None",
	OpInflate1:        "Inflate1",
	OpInflate2:        "Inflate2",
	OpAddView1:        "AddView1",
	OpAddView2:        "AddView2",
	OpSetId:           "SetId",
	OpSetListener:     "SetListener",
	OpFindView1:       "FindView1",
	OpFindView2:       "FindView2",
	OpFindView3:       "FindView3",
	OpSetIntentTarget: "SetIntentTarget",
	OpStartActivity:   "StartActivity",
	OpFindParent:      "FindParent",
	OpMenuAdd:         "MenuAdd",
	OpSetAdapter:      "SetAdapter",
	OpRemoveView:      "RemoveView",
	OpFindMenuItem:    "FindMenuItem",
	OpShowDialog:      "ShowDialog",
	OpDismissDialog:   "DismissDialog",
}

func (k OpKind) String() string {
	if int(k) < len(opKindNames) {
		return opKindNames[k]
	}
	return "OpKind?"
}

// Scope limits which views an OpFindView3 operation may retrieve.
type Scope int

const (
	// ScopeDescendants permits any transitive descendant (and the receiver).
	ScopeDescendants Scope = iota
	// ScopeChildren permits only direct children of the receiver. This is the
	// refinement the paper mentions for getCurrentView/getChildAt.
	ScopeChildren
)

// ApiSpec describes one platform method that the analysis models.
type ApiSpec struct {
	// Class is the platform class declaring the method. Subclass receivers
	// match through the hierarchy.
	Class string
	// Name is the method name.
	Name string
	// Params are the declared parameter types ("int" or a class name).
	Params []string
	// Return is the declared return type, or "" / "void" for none.
	Return string
	// Kind is the operation category.
	Kind OpKind
	// Scope refines OpFindView3 (ignored for other kinds).
	Scope Scope
	// Event names the GUI event for OpSetListener (e.g. "click"); it selects
	// the handler callback in the listener interface.
	Event string
	// AttachParent marks the Inflate1 variants that also attach the inflated
	// root to a parent ViewGroup argument (inflate(int, ViewGroup)). The
	// parent is the parameter at index ParentArg.
	AttachParent bool
	// ParentArg is the index of the parent parameter when AttachParent.
	ParentArg int
}

// HandlerSig describes one callback method of a listener interface. When a
// SetListener operation registers a listener, the platform later invokes this
// callback with the view as the parameter at ViewParams positions.
type HandlerSig struct {
	Name string
	// Params are the declared parameter types of the callback.
	Params []string
	// ViewParams are the indices of parameters that receive the view the
	// event occurred on (onItemClick receives both the AdapterView parent
	// and the child item view).
	ViewParams []int
	Return     string
}

// ListenerSpec describes one listener interface: the event it handles, the
// set-listener method that registers it, and its callback signatures.
type ListenerSpec struct {
	// Interface is the listener interface name (e.g. "OnClickListener").
	Interface string
	// Event is the GUI event name, matching ApiSpec.Event.
	Event string
	// Handlers are the callback methods the platform invokes.
	Handlers []HandlerSig
}

// ClassSpec describes one platform class or interface.
type ClassSpec struct {
	Name       string
	Super      string // "" only for Object
	Interfaces []string
	IsIface    bool
}

// Hierarchy returns the modeled platform class hierarchy. The returned slice
// is freshly allocated on each call; callers may modify it.
func Hierarchy() []ClassSpec {
	specs := []ClassSpec{
		{Name: "Object"},

		// Core application components.
		{Name: "Activity", Super: "Object"},
		{Name: "ListActivity", Super: "Activity"},
		{Name: "PreferenceActivity", Super: "Activity"},
		{Name: "TabActivity", Super: "Activity"},
		{Name: "Dialog", Super: "Object"},
		{Name: "AlertDialog", Super: "Dialog"},

		// View hierarchy.
		{Name: "View", Super: "Object"},
		{Name: "TextView", Super: "View"},
		{Name: "Button", Super: "TextView"},
		{Name: "EditText", Super: "TextView"},
		{Name: "CheckBox", Super: "Button"},
		{Name: "RadioButton", Super: "Button"},
		{Name: "ToggleButton", Super: "Button"},
		{Name: "Chronometer", Super: "TextView"},
		{Name: "ImageView", Super: "View"},
		{Name: "ImageButton", Super: "ImageView"},
		{Name: "ProgressBar", Super: "View"},
		{Name: "SeekBar", Super: "ProgressBar"},
		{Name: "RatingBar", Super: "ProgressBar"},
		{Name: "SurfaceView", Super: "View"},
		{Name: "WebView", Super: "View"},

		// Containers.
		{Name: "ViewGroup", Super: "View"},
		{Name: "LinearLayout", Super: "ViewGroup"},
		{Name: "RadioGroup", Super: "LinearLayout"},
		{Name: "TableLayout", Super: "LinearLayout"},
		{Name: "TableRow", Super: "LinearLayout"},
		{Name: "RelativeLayout", Super: "ViewGroup"},
		{Name: "FrameLayout", Super: "ViewGroup"},
		{Name: "ScrollView", Super: "FrameLayout"},
		{Name: "HorizontalScrollView", Super: "FrameLayout"},
		{Name: "TabHost", Super: "FrameLayout"},
		{Name: "ViewAnimator", Super: "FrameLayout"},
		{Name: "ViewFlipper", Super: "ViewAnimator"},
		{Name: "ViewSwitcher", Super: "ViewAnimator"},
		{Name: "AdapterView", Super: "ViewGroup"},
		{Name: "ListView", Super: "AdapterView"},
		{Name: "GridView", Super: "AdapterView"},
		{Name: "Spinner", Super: "AdapterView"},
		{Name: "Gallery", Super: "AdapterView"},

		// Helpers.
		{Name: "LayoutInflater", Super: "Object"},
		{Name: "Menu", Super: "Object"},
		{Name: "MenuItem", Super: "Object"},
		{Name: "Bundle", Super: "Object"},
		{Name: "Intent", Super: "Object"},
		{Name: "Class", Super: "Object"},
		{Name: "Adapter", Super: "Object", IsIface: true},
	}
	for _, l := range Listeners() {
		specs = append(specs, ClassSpec{Name: l.Interface, Super: "Object", IsIface: true})
	}
	return specs
}

// Listeners returns the modeled listener interfaces: a fresh table on each
// call, which the caller may modify.
func Listeners() []ListenerSpec {
	return []ListenerSpec{
		{
			Interface: "OnClickListener", Event: "click",
			Handlers: []HandlerSig{{Name: "onClick", Params: []string{"View"}, ViewParams: []int{0}, Return: "void"}},
		},
		{
			Interface: "OnLongClickListener", Event: "longclick",
			Handlers: []HandlerSig{{Name: "onLongClick", Params: []string{"View"}, ViewParams: []int{0}, Return: "void"}},
		},
		{
			Interface: "OnTouchListener", Event: "touch",
			Handlers: []HandlerSig{{Name: "onTouch", Params: []string{"View"}, ViewParams: []int{0}, Return: "void"}},
		},
		{
			Interface: "OnKeyListener", Event: "key",
			Handlers: []HandlerSig{{Name: "onKey", Params: []string{"View", "int"}, ViewParams: []int{0}, Return: "void"}},
		},
		{
			Interface: "OnFocusChangeListener", Event: "focus",
			Handlers: []HandlerSig{{Name: "onFocusChange", Params: []string{"View"}, ViewParams: []int{0}, Return: "void"}},
		},
		{
			Interface: "OnItemClickListener", Event: "itemclick",
			Handlers: []HandlerSig{{Name: "onItemClick", Params: []string{"AdapterView", "View", "int"}, ViewParams: []int{0, 1}, Return: "void"}},
		},
		{
			Interface: "OnItemSelectedListener", Event: "itemselected",
			Handlers: []HandlerSig{
				{Name: "onItemSelected", Params: []string{"AdapterView", "View", "int"}, ViewParams: []int{0, 1}, Return: "void"},
				{Name: "onNothingSelected", Params: []string{"AdapterView"}, ViewParams: []int{0}, Return: "void"},
			},
		},
		{
			Interface: "OnItemLongClickListener", Event: "itemlongclick",
			Handlers: []HandlerSig{{Name: "onItemLongClick", Params: []string{"AdapterView", "View", "int"}, ViewParams: []int{0, 1}, Return: "void"}},
		},
		{
			Interface: "OnCheckedChangeListener", Event: "checkedchange",
			Handlers: []HandlerSig{{Name: "onCheckedChanged", Params: []string{"View"}, ViewParams: []int{0}, Return: "void"}},
		},
		{
			Interface: "OnEditorActionListener", Event: "editoraction",
			Handlers: []HandlerSig{{Name: "onEditorAction", Params: []string{"TextView", "int"}, ViewParams: []int{0}, Return: "void"}},
		},
		{
			Interface: "OnSeekBarChangeListener", Event: "seekbarchange",
			Handlers: []HandlerSig{
				{Name: "onProgressChanged", Params: []string{"SeekBar", "int"}, ViewParams: []int{0}, Return: "void"},
				{Name: "onStartTrackingTouch", Params: []string{"SeekBar"}, ViewParams: []int{0}, Return: "void"},
				{Name: "onStopTrackingTouch", Params: []string{"SeekBar"}, ViewParams: []int{0}, Return: "void"},
			},
		},
	}
}

// setListenerAPIs derives the set-listener registration methods, one per
// listener interface, each declared on the widget class that hosts it.
func setListenerAPIs() []ApiSpec {
	host := map[string]string{
		"OnItemClickListener":     "AdapterView",
		"OnItemSelectedListener":  "AdapterView",
		"OnItemLongClickListener": "AdapterView",
		"OnCheckedChangeListener": "CheckBox",
		"OnEditorActionListener":  "TextView",
		"OnSeekBarChangeListener": "SeekBar",
	}
	var out []ApiSpec
	for _, l := range Listeners() {
		cls, ok := host[l.Interface]
		if !ok {
			cls = "View"
		}
		out = append(out, ApiSpec{
			Class:  cls,
			Name:   "set" + l.Interface,
			Params: []string{l.Interface},
			Return: "void",
			Kind:   OpSetListener,
			Event:  l.Event,
		})
	}
	return out
}

// APIs returns the modeled platform methods, classified by operation kind.
func APIs() []ApiSpec {
	specs := []ApiSpec{
		// Inflate2: content inflation into an activity or dialog.
		{Class: "Activity", Name: "setContentView", Params: []string{"int"}, Return: "void", Kind: OpInflate2},
		{Class: "Dialog", Name: "setContentView", Params: []string{"int"}, Return: "void", Kind: OpInflate2},

		// AddView1: associate an existing view as the content root.
		{Class: "Activity", Name: "setContentView", Params: []string{"View"}, Return: "void", Kind: OpAddView1},
		{Class: "Dialog", Name: "setContentView", Params: []string{"View"}, Return: "void", Kind: OpAddView1},

		// Inflate1: inflate and return the root.
		{Class: "LayoutInflater", Name: "inflate", Params: []string{"int"}, Return: "View", Kind: OpInflate1},
		{Class: "LayoutInflater", Name: "inflate", Params: []string{"int", "ViewGroup"}, Return: "View", Kind: OpInflate1, AttachParent: true, ParentArg: 1},

		// AddView2: explicit parent-child construction.
		{Class: "ViewGroup", Name: "addView", Params: []string{"View"}, Return: "void", Kind: OpAddView2},
		{Class: "ViewGroup", Name: "addView", Params: []string{"View", "int"}, Return: "void", Kind: OpAddView2},

		// RemoveView: concrete detach, static no-op (monotone abstraction).
		{Class: "ViewGroup", Name: "removeView", Params: []string{"View"}, Return: "void", Kind: OpRemoveView},
		{Class: "ViewGroup", Name: "removeAllViews", Return: "void", Kind: OpRemoveView},

		// SetId.
		{Class: "View", Name: "setId", Params: []string{"int"}, Return: "void", Kind: OpSetId},

		// FindView1/2.
		{Class: "View", Name: "findViewById", Params: []string{"int"}, Return: "View", Kind: OpFindView1},
		{Class: "Activity", Name: "findViewById", Params: []string{"int"}, Return: "View", Kind: OpFindView2},
		{Class: "Dialog", Name: "findViewById", Params: []string{"int"}, Return: "View", Kind: OpFindView2},

		// Inter-component control flow (Section 6 extension): intents carry
		// a target component class; startActivity launches it. The Intent
		// constructor taking a Class is modeled as a set-intent-target
		// operation on the freshly allocated intent.
		{Class: "Intent", Name: "Intent", Params: []string{"Class"}, Return: "void", Kind: OpSetIntentTarget},
		{Class: "Intent", Name: "setClass", Params: []string{"Class"}, Return: "Intent", Kind: OpSetIntentTarget},
		{Class: "Activity", Name: "startActivity", Params: []string{"Intent"}, Return: "void", Kind: OpStartActivity},

		// List adapters: the adapter's getView results populate the
		// AdapterView.
		{Class: "AdapterView", Name: "setAdapter", Params: []string{"Adapter"}, Return: "void", Kind: OpSetAdapter},

		// Options menus: Menu.add(itemId) creates a MenuItem;
		// Menu.findItem(itemId) retrieves it by id, like findViewById does
		// for views.
		{Class: "Menu", Name: "add", Params: []string{"int"}, Return: "MenuItem", Kind: OpMenuAdd},
		{Class: "Menu", Name: "findItem", Params: []string{"int"}, Return: "MenuItem", Kind: OpFindMenuItem},

		// Dialog visibility. Show/dismiss do not change the monotone
		// solution; they anchor the lifecycle-ordering checkers.
		{Class: "Dialog", Name: "show", Return: "void", Kind: OpShowDialog},
		{Class: "Dialog", Name: "dismiss", Return: "void", Kind: OpDismissDialog},

		// FindParent: the inverse hierarchy query.
		{Class: "View", Name: "getParent", Return: "ViewGroup", Kind: OpFindParent},

		// FindView3 and its child-only refinements.
		{Class: "View", Name: "findFocus", Return: "View", Kind: OpFindView3, Scope: ScopeDescendants},
		{Class: "ViewGroup", Name: "getFocusedChild", Return: "View", Kind: OpFindView3, Scope: ScopeChildren},
		{Class: "ViewGroup", Name: "getChildAt", Params: []string{"int"}, Return: "View", Kind: OpFindView3, Scope: ScopeChildren},
		{Class: "ViewAnimator", Name: "getCurrentView", Return: "View", Kind: OpFindView3, Scope: ScopeChildren},
		{Class: "AdapterView", Name: "getSelectedView", Return: "View", Kind: OpFindView3, Scope: ScopeChildren},
	}
	return append(specs, setListenerAPIs()...)
}

// Lifecycle lists the activity lifecycle callback methods the framework may
// invoke on an activity instance. Signature: no parameters, void return
// (parameters such as the Bundle of onCreate carry no GUI objects and are
// dropped by the ALite abstraction).
var Lifecycle = []string{
	"onCreate", "onStart", "onRestart", "onResume",
	"onPause", "onStop", "onDestroy",
}

// DialogLifecycle lists the callbacks invoked on explicitly-created dialogs.
var DialogLifecycle = []string{"onCreate", "onStart", "onStop"}

// MenuCreateCallback is the callback the platform invokes on an activity to
// populate its options menu; its single parameter is the Menu.
const MenuCreateCallback = "onCreateOptionsMenu"

// MenuSelectCallback is the callback the platform invokes when a menu item
// is selected; its single parameter is the MenuItem.
const MenuSelectCallback = "onOptionsItemSelected"

// DialogCreateCallback is the callback the platform invokes on an activity
// to create a managed dialog; its single parameter is the dialog id.
const DialogCreateCallback = "onCreateDialog"

// listenerTable is the Listeners table the lookups below search, built once.
var listenerTable = Listeners()

// ListenerByInterface returns the ListenerSpec for an interface name. The
// spec's slices are shared with every other caller's: callers must not
// modify them.
func ListenerByInterface(name string) (ListenerSpec, bool) {
	for _, l := range listenerTable {
		if l.Interface == name {
			return l, true
		}
	}
	return ListenerSpec{}, false
}

// ListenerByEvent returns the ListenerSpec handling the given event name.
// The spec's slices are shared with every other caller's: callers must not
// modify them.
func ListenerByEvent(event string) (ListenerSpec, bool) {
	for _, l := range listenerTable {
		if l.Event == event {
			return l, true
		}
	}
	return ListenerSpec{}, false
}

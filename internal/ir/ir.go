// Package ir defines the resolved program model and three-address
// intermediate representation that the analysis (package core) and the
// concrete interpreter (package interp) consume.
//
// A Program combines the application's ALite classes with the modeled
// platform hierarchy (package platform) and the application's linked layouts
// and resource table (package layout). Building a Program performs semantic
// resolution: class-table construction, inheritance checking, name
// resolution, type checking of the ALite statement forms, and lowering of
// nested expressions into the paper's three-address statements.
package ir

import (
	"slices"
	"sort"
	"strings"

	"gator/internal/alite"
	"gator/internal/layout"
	"gator/internal/platform"
)

// Program is a resolved, lowered ALite application plus its platform model
// and resources.
type Program struct {
	// Classes maps every class and interface name (application and
	// platform) to its resolved representation.
	Classes map[string]*Class
	// Layouts are the linked layout definitions by name.
	Layouts map[string]*layout.Layout
	// R is the resource constant table.
	R *layout.RTable
	// Opaque records calls to unmodeled platform methods, for diagnostics.
	Opaque []*Invoke

	object         *Class
	activity       *Class
	dialog         *Class
	view           *Class
	listenerIfaces map[string]platform.ListenerSpec

	// fileOrder is the source-file order of the original Build; opaqueByFile
	// holds each file's Opaque entries in lowering order. Together they let
	// PatchFile rebuild Opaque after re-lowering a single file without
	// disturbing the global order a full Build would produce.
	fileOrder    []string
	opaqueByFile map[string][]*Invoke

	// appClasses memoizes AppClasses: the class set is fixed once Build
	// returns (incremental re-lowering replaces method bodies only).
	appClasses []*Class

	// numVars counts the variables created so far; the next one gets it
	// as its ID.
	numVars int
}

// NumVars returns the number of variables the program has created, in
// Build and in every PatchFile since: each Var's ID is below it, and no
// two share one. A re-lowered body's variables get fresh IDs; the IDs of
// the variables it replaced are not reused.
func (p *Program) NumVars() int { return p.numVars }

// newVar assigns v the next variable ID and returns it.
func (p *Program) newVar(v *Var) *Var {
	v.ID = p.numVars
	p.numVars++
	return v
}

// Object returns the root class.
func (p *Program) Object() *Class { return p.object }

// SourceFiles returns the source file names in original build order. The
// returned slice is shared; callers must not modify it.
func (p *Program) SourceFiles() []string { return p.fileOrder }

// addOpaque records one unmodeled platform call, attributed to the source
// file of the containing method so PatchFile can rebuild Program.Opaque.
func (p *Program) addOpaque(m *Method, inv *Invoke) {
	file := m.Pos.File
	p.opaqueByFile[file] = append(p.opaqueByFile[file], inv)
}

// rebuildOpaque reassembles Program.Opaque from the per-file lists in the
// original build's file order, matching what a from-scratch Build emits.
func (p *Program) rebuildOpaque() {
	p.Opaque = p.Opaque[:0]
	for _, f := range p.fileOrder {
		p.Opaque = append(p.Opaque, p.opaqueByFile[f]...)
	}
}

// AppClasses returns the application (non-platform) classes, sorted by name.
// The returned slice is shared; callers must not modify it.
func (p *Program) AppClasses() []*Class {
	if p.appClasses == nil {
		out := make([]*Class, 0, len(p.Classes))
		for _, c := range p.Classes {
			if !c.IsPlatform {
				out = append(out, c)
			}
		}
		sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
		p.appClasses = out
	}
	return p.appClasses
}

// Class returns the class with the given name, or nil.
func (p *Program) Class(name string) *Class { return p.Classes[name] }

// IsActivityClass reports whether c is an application activity class
// (a non-platform subclass of Activity).
func (p *Program) IsActivityClass(c *Class) bool {
	return !c.IsPlatform && c.SubtypeOf(p.activity)
}

// IsDialogClass reports whether c is an application dialog class.
func (p *Program) IsDialogClass(c *Class) bool {
	return !c.IsPlatform && c.SubtypeOf(p.dialog)
}

// IsViewClass reports whether c is a view class (platform or application).
func (p *Program) IsViewClass(c *Class) bool { return c.SubtypeOf(p.view) }

// ListenerSpecsOf returns the platform listener interfaces that c
// (transitively) implements; empty for non-listener classes.
func (p *Program) ListenerSpecsOf(c *Class) []platform.ListenerSpec {
	var out []platform.ListenerSpec
	seen := map[string]bool{}
	var visit func(c *Class)
	visit = func(c *Class) {
		if c == nil || seen[c.Name] {
			return
		}
		seen[c.Name] = true
		if spec, ok := p.listenerIfaces[c.Name]; ok {
			out = append(out, spec)
		}
		visit(c.Super)
		for _, i := range c.Interfaces {
			visit(i)
		}
	}
	visit(c)
	sort.Slice(out, func(i, j int) bool { return out[i].Interface < out[j].Interface })
	return out
}

// IsListenerClass reports whether c implements any listener interface.
func (p *Program) IsListenerClass(c *Class) bool {
	return len(p.ListenerSpecsOf(c)) > 0
}

// Class is a resolved class or interface.
type Class struct {
	Name        string
	Super       *Class // nil only for Object and for interfaces
	Interfaces  []*Class
	IsInterface bool
	IsPlatform  bool
	Fields      []*Field
	// Methods maps signature key (name + parameter-kind string) to the
	// method declared directly in this class.
	Methods map[string]*Method
	Pos     alite.Pos

	// sorted holds Methods' values sorted by key, for MethodsSorted. Build
	// fills it once the method set is final; PatchFile keeps every Method
	// pointer, so it never goes stale.
	sorted []*Method

	// ancestors memoizes the transitive supertype closure (including c
	// itself). The hierarchy is fixed once Build returns — incremental
	// re-lowering replaces method bodies only — so the closure is computed
	// at most once per class.
	ancestors map[*Class]bool
}

func (c *Class) String() string { return c.Name }

// SubtypeOf reports whether c is t or a transitive subtype of t, through
// both extends and implements edges.
func (c *Class) SubtypeOf(t *Class) bool {
	if t == nil {
		return false
	}
	if c.ancestors == nil {
		anc := map[*Class]bool{}
		var walk func(x *Class)
		walk = func(x *Class) {
			if x == nil || anc[x] {
				return
			}
			anc[x] = true
			walk(x.Super)
			for _, i := range x.Interfaces {
				walk(i)
			}
		}
		walk(c)
		c.ancestors = anc
	}
	return c.ancestors[t]
}

// LookupField resolves a field name through the superclass chain.
func (c *Class) LookupField(name string) *Field {
	for x := c; x != nil; x = x.Super {
		for _, f := range x.Fields {
			if f.Name == name {
				return f
			}
		}
	}
	return nil
}

// LookupMethod resolves a signature key through superclasses and interfaces,
// returning the most-derived declaration visible from c.
func (c *Class) LookupMethod(key string) *Method {
	for x := c; x != nil; x = x.Super {
		if m, ok := x.Methods[key]; ok {
			return m
		}
	}
	// Interface methods (including inherited interface methods).
	seen := map[*Class]bool{}
	var walk func(x *Class) *Method
	walk = func(x *Class) *Method {
		if x == nil || seen[x] {
			return nil
		}
		seen[x] = true
		if m, ok := x.Methods[key]; ok {
			return m
		}
		if m := walk(x.Super); m != nil {
			return m
		}
		for _, i := range x.Interfaces {
			if m := walk(i); m != nil {
				return m
			}
		}
		return nil
	}
	return walk(c)
}

// Dispatch resolves a virtual call on a concrete receiver class: the
// most-derived concrete (body-bearing or platform) method matching key.
func (c *Class) Dispatch(key string) *Method {
	for x := c; x != nil; x = x.Super {
		if m, ok := x.Methods[key]; ok {
			return m
		}
	}
	return nil
}

// MethodsSorted returns this class's directly declared methods sorted by
// signature key, for deterministic iteration. The slice is computed once,
// when Build returns, and shared: callers must not modify it.
func (c *Class) MethodsSorted() []*Method { return c.sorted }

// sortMethods fills c.sorted from c.Methods.
func (c *Class) sortMethods() {
	c.sorted = make([]*Method, 0, len(c.Methods))
	for _, m := range c.Methods {
		c.sorted = append(c.sorted, m)
	}
	slices.SortFunc(c.sorted, func(a, b *Method) int { return strings.Compare(a.Key, b.Key) })
}

// Field is a resolved field declaration.
type Field struct {
	Class *Class
	Name  string
	Type  alite.Type
	// TypeClass is the resolved class for reference-typed fields.
	TypeClass *Class
}

// Sig returns the qualified field signature (DeclaringClass.name).
func (f *Field) Sig() string { return f.Class.Name + "." + f.Name }

// Method is a resolved method or constructor.
type Method struct {
	Class  *Class
	Name   string
	Key    string // signature key: name + "(" + kinds + ")"
	IsCtor bool
	Return alite.Type
	// ReturnClass is the resolved class for reference return types.
	ReturnClass *Class
	// This is the receiver variable (nil for platform methods without
	// bodies).
	This *Var
	// Params are the formal parameters, excluding the receiver.
	Params []*Var
	// Locals are all variables of the method: this, params, user locals,
	// and lowering temporaries.
	Locals []*Var
	// Body is the lowered statement list; nil for platform methods and
	// interface signatures.
	Body []Stmt
	// API is the platform operation modeled by this method, if any.
	API *platform.ApiSpec
	Pos alite.Pos
}

// QualifiedName returns Class.name for diagnostics.
func (m *Method) QualifiedName() string { return m.Class.Name + "." + m.Name }

func (m *Method) String() string { return m.Class.Name + "." + m.Key }

// IsAbstract reports whether the method has no body (interface signature or
// unmodeled platform method).
func (m *Method) IsAbstract() bool { return m.Body == nil && m.API == nil }

// Var is a local variable, parameter, receiver, or lowering temporary.
type Var struct {
	// ID numbers the variables of one Program densely from 0, below
	// Program.NumVars, so per-variable tables can be slices.
	ID   int
	Name string
	Type alite.Type
	// TypeClass is the resolved class for reference-typed variables.
	TypeClass *Class
	Method    *Method
	// Index is the position in Method.Locals.
	Index int
	// Temp marks compiler-introduced temporaries.
	Temp bool
	Pos  alite.Pos
}

func (v *Var) String() string {
	if v.Method != nil {
		return v.Method.QualifiedName() + ":" + v.Name
	}
	return v.Name
}

// KindSig encodes parameter kinds for signature keys: 'I' for int, 'R' for
// any reference type. ALite overloading is resolved on these kinds.
func KindSig(types []alite.Type) string {
	var b strings.Builder
	b.Grow(len(types))
	for _, t := range types {
		b.WriteByte(kindOf(t))
	}
	return b.String()
}

// MethodKey builds the signature key for a method name and parameter types:
// name + "(" + KindSig(params) + ")", in one allocation.
func MethodKey(name string, params []alite.Type) string {
	return methodKey(name, params, func(t alite.Type) alite.Type { return t })
}

// methodKey is MethodKey over any list whose elements have a type: a
// declaration's parameters, a call's argument variables.
func methodKey[E any](name string, params []E, typeOf func(E) alite.Type) string {
	var b strings.Builder
	b.Grow(len(name) + len(params) + 2)
	b.WriteString(name)
	b.WriteByte('(')
	for _, p := range params {
		b.WriteByte(kindOf(typeOf(p)))
	}
	b.WriteByte(')')
	return b.String()
}

// declKey is a declaration's MethodKey: its parameters' declared types are
// their resolved ones.
func declKey(md *alite.MethodDecl) string {
	return methodKey(md.Name, md.Params, func(p *alite.Param) alite.Type { return p.Type })
}

func kindOf(t alite.Type) byte {
	if t.IsRef() {
		return 'R'
	}
	return 'I'
}

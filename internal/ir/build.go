package ir

import (
	"slices"
	"sort"

	"gator/internal/alite"
	"gator/internal/layout"
	"gator/internal/platform"
	"gator/internal/slab"
)

// Build resolves and lowers an application: ALite source files plus layout
// definitions. Layouts are linked (includes spliced) in place.
func Build(files []*alite.File, layouts map[string]*layout.Layout) (*Program, error) {
	if layouts == nil {
		layouts = map[string]*layout.Layout{}
	}
	if err := layout.Link(layouts); err != nil {
		return nil, err
	}
	b := newBuilder(&Program{
		Classes:        map[string]*Class{},
		Layouts:        layouts,
		R:              layout.NewRTable(layouts),
		listenerIfaces: map[string]platform.ListenerSpec{},
		opaqueByFile:   map[string][]*Invoke{},
	})
	for _, f := range files {
		b.prog.fileOrder = append(b.prog.fileOrder, f.Name)
	}
	b.installPlatform()
	b.declareAppClasses(files)
	if err := b.errs.Err(); err != nil {
		return nil, err
	}
	b.resolveHierarchy(files)
	if err := b.errs.Err(); err != nil {
		return nil, err
	}
	b.declareMembers(files)
	if err := b.errs.Err(); err != nil {
		return nil, err
	}
	b.lowerBodies()
	if err := b.errs.Err(); err != nil {
		return nil, err
	}
	b.prog.rebuildOpaque()
	b.validateLayouts()
	if err := b.errs.Err(); err != nil {
		return nil, err
	}
	for _, c := range b.prog.Classes {
		c.sortMethods()
	}
	return b.prog, nil
}

// MustBuild is Build that panics on error; for tests and embedded corpora.
func MustBuild(files []*alite.File, layouts map[string]*layout.Layout) *Program {
	p, err := Build(files, layouts)
	if err != nil {
		panic(err)
	}
	return p
}

type builder struct {
	prog *Program
	errs alite.ErrorList
	// appDecls maps app class names back to their AST declarations.
	appDecls map[string]alite.Decl
	// bodies holds the body-bearing methods in declaration order, each
	// with the block to lower into it; declareMembers records them and
	// lowerBodies lowers them.
	bodies []methodBody
	// vars is the slab lowering takes locals and temporaries from. It
	// lives with the builder, so the variables of two PatchFile calls never
	// share a chunk: a replaced body frees its variables.
	vars slab.Slab[Var]
	// lw is the builder's one lowerer, reset for each body.
	lw lowerer
}

func newBuilder(p *Program) *builder {
	b := &builder{prog: p}
	b.lw.b = b
	return b
}

// methodBody pairs a declared method with the body lowering fills it from.
type methodBody struct {
	m    *Method
	body *alite.Block
}

// installPlatform materializes the modeled Android hierarchy, listener
// interfaces, and classified API methods.
func (b *builder) installPlatform() {
	p := b.prog
	specs := platform.Hierarchy()
	for _, s := range specs {
		p.Classes[s.Name] = &Class{
			Name:        s.Name,
			IsInterface: s.IsIface,
			IsPlatform:  true,
			Methods:     map[string]*Method{},
		}
	}
	for _, s := range specs {
		c := p.Classes[s.Name]
		if s.Super != "" && !s.IsIface {
			c.Super = p.Classes[s.Super]
		}
		for _, i := range s.Interfaces {
			c.Interfaces = append(c.Interfaces, p.Classes[i])
		}
	}
	p.object = p.Classes["Object"]
	p.activity = p.Classes["Activity"]
	p.dialog = p.Classes["Dialog"]
	p.view = p.Classes["View"]

	// Listener interfaces: register specs and handler signatures.
	for _, l := range platform.Listeners() {
		p.listenerIfaces[l.Interface] = l
		iface := p.Classes[l.Interface]
		for _, h := range l.Handlers {
			m := b.platformMethod(iface, h.Name, h.Params, h.Return, nil)
			iface.Methods[m.Key] = m
		}
	}

	// Classified APIs.
	apis := platform.APIs()
	for i := range apis {
		api := &apis[i]
		c := p.Classes[api.Class]
		m := b.platformMethod(c, api.Name, api.Params, api.Return, api)
		// A platform method named after its class is a modeled constructor
		// (e.g. Intent(Class)).
		m.IsCtor = m.Name == c.Name
		c.Methods[m.Key] = m
	}

	// A few unclassified-but-typed helpers the corpus uses.
	misc := []struct {
		cls, name string
		params    []string
		ret       string
	}{
		{"Activity", "getLayoutInflater", nil, "LayoutInflater"},
		{"Dialog", "getLayoutInflater", nil, "LayoutInflater"},
		// The Adapter interface's factory callback.
		{"Adapter", "getView", []string{"int"}, "View"},
	}
	for _, mi := range misc {
		c := p.Classes[mi.cls]
		m := b.platformMethod(c, mi.name, mi.params, mi.ret, nil)
		c.Methods[m.Key] = m
	}
}

// platformMethod builds a body-less platform method from type names.
func (b *builder) platformMethod(c *Class, name string, params []string, ret string, api *platform.ApiSpec) *Method {
	ptypes := make([]alite.Type, len(params))
	for i, pn := range params {
		ptypes[i] = b.typeFromName(pn)
	}
	m := &Method{
		Class:  c,
		Name:   name,
		Key:    MethodKey(name, ptypes),
		Return: b.typeFromName(ret),
		API:    api,
	}
	if m.Return.IsRef() {
		m.ReturnClass = b.prog.Classes[m.Return.Name]
	}
	for i, t := range ptypes {
		v := b.prog.newVar(&Var{Name: "p" + string(rune('0'+i)), Type: t, Method: m, Index: i})
		if t.IsRef() {
			v.TypeClass = b.prog.Classes[t.Name]
		}
		m.Params = append(m.Params, v)
		m.Locals = append(m.Locals, v)
	}
	return m
}

func (b *builder) typeFromName(n string) alite.Type {
	switch n {
	case "", "void":
		return alite.Type{Prim: alite.TypeVoid}
	case "int":
		return alite.Type{Prim: alite.TypeInt}
	default:
		return alite.Type{Name: n}
	}
}

func (b *builder) declareAppClasses(files []*alite.File) {
	b.appDecls = map[string]alite.Decl{}
	for _, f := range files {
		for _, d := range f.Decls {
			name := d.DeclName()
			if prev, ok := b.prog.Classes[name]; ok {
				if prev.IsPlatform {
					b.errs.Add(d.DeclPos(), "class %s conflicts with a platform class", name)
				} else {
					b.errs.Add(d.DeclPos(), "duplicate class %s", name)
				}
				continue
			}
			c := &Class{Name: name, Pos: d.DeclPos()}
			switch d := d.(type) {
			case *alite.ClassDecl:
				c.Methods = make(map[string]*Method, len(d.Methods))
			case *alite.InterfaceDecl:
				c.IsInterface = true
				c.Methods = make(map[string]*Method, len(d.Methods))
			}
			b.prog.Classes[name] = c
			b.appDecls[name] = d
		}
	}
}

func (b *builder) resolveHierarchy(files []*alite.File) {
	p := b.prog
	for _, f := range files {
		for _, d := range f.Decls {
			c := p.Classes[d.DeclName()]
			if c == nil || b.appDecls[d.DeclName()] != d {
				continue // duplicate; already reported
			}
			switch d := d.(type) {
			case *alite.ClassDecl:
				super := p.object
				if d.Super != "" {
					s, ok := p.Classes[d.Super]
					switch {
					case !ok:
						b.errs.Add(d.Pos, "class %s extends unknown class %s", d.Name, d.Super)
					case s.IsInterface:
						b.errs.Add(d.Pos, "class %s extends interface %s", d.Name, d.Super)
					default:
						super = s
					}
				}
				c.Super = super
				for _, in := range d.Implements {
					i, ok := p.Classes[in]
					switch {
					case !ok:
						b.errs.Add(d.Pos, "class %s implements unknown interface %s", d.Name, in)
					case !i.IsInterface:
						b.errs.Add(d.Pos, "class %s implements non-interface %s", d.Name, in)
					default:
						c.Interfaces = append(c.Interfaces, i)
					}
				}
			case *alite.InterfaceDecl:
				for _, in := range d.Extends {
					i, ok := p.Classes[in]
					switch {
					case !ok:
						b.errs.Add(d.Pos, "interface %s extends unknown interface %s", d.Name, in)
					case !i.IsInterface:
						b.errs.Add(d.Pos, "interface %s extends class %s", d.Name, in)
					default:
						c.Interfaces = append(c.Interfaces, i)
					}
				}
			}
		}
	}
	if b.errs.Err() != nil {
		return
	}
	// Inheritance cycle check over extends+implements edges.
	state := map[*Class]int{}
	var visit func(c *Class) bool
	visit = func(c *Class) bool {
		switch state[c] {
		case 1:
			return true
		case 2:
			return false
		}
		state[c] = 1
		cyc := false
		if c.Super != nil && visit(c.Super) {
			cyc = true
		}
		for _, i := range c.Interfaces {
			if visit(i) {
				cyc = true
			}
		}
		state[c] = 2
		return cyc
	}
	for _, name := range sortedClassNames(p) {
		c := p.Classes[name]
		if !c.IsPlatform && visit(c) {
			b.errs.Add(c.Pos, "inheritance cycle involving %s", c.Name)
			return
		}
	}
}

func sortedClassNames(p *Program) []string {
	names := make([]string, 0, len(p.Classes))
	for n := range p.Classes {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// resolveType resolves a declared type to its class (for reference types).
func (b *builder) resolveType(t alite.Type, pos alite.Pos) (alite.Type, *Class) {
	if !t.IsRef() {
		return t, nil
	}
	c, ok := b.prog.Classes[t.Name]
	if !ok {
		b.errs.Add(pos, "unknown type %s", t.Name)
		return t, b.prog.object
	}
	return t, c
}

func (b *builder) declareMembers(files []*alite.File) {
	for _, f := range files {
		for _, d := range f.Decls {
			if b.appDecls[d.DeclName()] != d {
				continue
			}
			switch d := d.(type) {
			case *alite.ClassDecl:
				b.declareClassMembers(d)
			case *alite.InterfaceDecl:
				b.declareInterfaceMembers(d)
			}
		}
	}
}

func (b *builder) declareClassMembers(d *alite.ClassDecl) {
	c := b.prog.Classes[d.Name]
	seen := map[string]bool{}
	fields := make([]Field, len(d.Fields))
	c.Fields = make([]*Field, 0, len(d.Fields))
	for i, fd := range d.Fields {
		if seen[fd.Name] {
			b.errs.Add(fd.Pos, "duplicate field %s in class %s", fd.Name, d.Name)
			continue
		}
		seen[fd.Name] = true
		t, tc := b.resolveType(fd.Type, fd.Pos)
		fields[i] = Field{Class: c, Name: fd.Name, Type: t, TypeClass: tc}
		c.Fields = append(c.Fields, &fields[i])
	}
	b.declareMethods(c, d.Methods)
}

func (b *builder) declareInterfaceMembers(d *alite.InterfaceDecl) {
	b.declareMethods(b.prog.Classes[d.Name], d.Methods)
}

// declareMethods declares a class's methods and records each body for
// lowerBodies. The methods come from one []Method, and their receivers and
// parameters from one []Var and one []*Var, so a class costs a few
// allocations however many methods it declares.
func (b *builder) declareMethods(c *Class, mds []*alite.MethodDecl) {
	params := 0
	for _, md := range mds {
		params += len(md.Params)
	}
	receivers := 0
	if !c.IsInterface {
		receivers = len(mds)
	}
	methods := make([]Method, len(mds))
	vars := make([]Var, receivers+params)
	ptrs := make([]*Var, params)
	for i, md := range mds {
		k := len(md.Params)
		n := k
		if !c.IsInterface {
			n++ // the receiver
		}
		if b.declareMethod(c, md, &methods[i], vars[:n:n], ptrs[:k:k]) && md.Body != nil {
			b.bodies = append(b.bodies, methodBody{m: &methods[i], body: md.Body})
		}
		vars, ptrs = vars[n:], ptrs[k:]
	}
}

// declareMethod declares md in c as m, reporting whether it did (a
// duplicate is an error). vars holds the receiver, when c is a class, and
// the parameters; params holds a pointer per parameter.
func (b *builder) declareMethod(c *Class, md *alite.MethodDecl, m *Method, vars []Var, params []*Var) bool {
	for _, prm := range md.Params {
		t, _ := b.resolveType(prm.Type, prm.Pos)
		if !t.IsRef() && t.Prim != alite.TypeInt {
			b.errs.Add(prm.Pos, "parameter %s cannot have type %s", prm.Name, t)
		}
	}
	key := declKey(md)
	if _, dup := c.Methods[key]; dup {
		b.errs.Add(md.Pos, "duplicate method %s in class %s", key, c.Name)
		return false
	}
	ret, retClass := b.resolveType(md.Return, md.Pos)
	*m = Method{
		Class:       c,
		Name:        md.Name,
		Key:         key,
		IsCtor:      md.IsCtor,
		Return:      ret,
		ReturnClass: retClass,
		Pos:         md.Pos,
	}
	if !c.IsInterface {
		vars[0] = Var{Name: "this", Type: alite.Type{Name: c.Name}, TypeClass: c, Method: m, Pos: md.Pos}
		m.This = b.prog.newVar(&vars[0])
	}
	if len(params) > 0 {
		m.Params = params
	}
	pseen := map[string]bool{}
	for i, prm := range md.Params {
		if pseen[prm.Name] {
			b.errs.Add(prm.Pos, "duplicate parameter %s", prm.Name)
		}
		pseen[prm.Name] = true
		t, tc := b.resolveType(prm.Type, prm.Pos)
		v := &vars[len(vars)-len(params)+i]
		*v = Var{Name: prm.Name, Type: t, TypeClass: tc, Method: m, Index: len(vars) - len(params) + i, Pos: prm.Pos}
		params[i] = b.prog.newVar(v)
	}
	// Lowering sets a body's Locals; a signature's are its parameters.
	if md.Body == nil {
		m.Locals = slices.Clone(m.Params)
	}
	c.Methods[key] = m
	return true
}

// lowerBodies lowers the bodies declareMembers recorded, in declaration
// order. The variable slab is paced by the top-level statements of the
// bodies begun so far: lowering makes 0.5 to 1.2 locals and temporaries
// per statement on the corpus and chain apps, so a first chunk of one per
// two undershoots.
func (b *builder) lowerBodies() {
	done, total := 0, 0
	for _, mb := range b.bodies {
		total += len(mb.body.Stmts)
	}
	b.vars = slab.Paced[Var](total/2, func() (int, int) { return done, total })
	for _, mb := range b.bodies {
		done += len(mb.body.Stmts)
		mb.m.Body = b.lowerBody(mb.m, mb.body)
	}
}

// validateLayouts checks that every layout node names a known view class and
// that declarative onClick handlers resolve somewhere.
func (b *builder) validateLayouts() {
	p := b.prog
	names := make([]string, 0, len(p.Layouts))
	for n := range p.Layouts {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, ln := range names {
		l := p.Layouts[ln]
		l.Root.Walk(func(n *layout.Node) {
			c, ok := p.Classes[n.Class]
			if !ok {
				b.errs.Add(alite.Pos{File: ln + ".xml"}, "layout %s: unknown view class %s", ln, n.Class)
				return
			}
			if !p.IsViewClass(c) || c.IsInterface {
				b.errs.Add(alite.Pos{File: ln + ".xml"}, "layout %s: %s is not a view class", ln, n.Class)
			}
		})
	}
}

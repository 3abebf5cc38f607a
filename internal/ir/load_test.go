package ir

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"gator/internal/alite"
	"gator/internal/corpus"
	"gator/internal/layout"
)

// fmtShapeSignature is ShapeSignature as it was written with fmt, kept as
// the reference the builder-based version must match byte for byte.
func fmtShapeSignature(f *alite.File) string {
	var b strings.Builder
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *alite.ClassDecl:
			fmt.Fprintf(&b, "class %s extends %s implements %s\n",
				d.Name, d.Super, strings.Join(d.Implements, ","))
			for _, fd := range d.Fields {
				fmt.Fprintf(&b, "  field %s %s\n", fd.Name, fd.Type)
			}
			for _, md := range d.Methods {
				fmtMethodShape(&b, md)
			}
		case *alite.InterfaceDecl:
			fmt.Fprintf(&b, "interface %s extends %s\n",
				d.Name, strings.Join(d.Extends, ","))
			for _, md := range d.Methods {
				fmtMethodShape(&b, md)
			}
		}
	}
	return b.String()
}

func fmtMethodShape(b *strings.Builder, md *alite.MethodDecl) {
	kind := "method"
	if md.IsCtor {
		kind = "ctor"
	}
	fmt.Fprintf(b, "  %s %s %s(", kind, md.Return, md.Name)
	for i, p := range md.Params {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(b, "%s %s", p.Type, p.Name)
	}
	if md.Body != nil {
		b.WriteString(") {}\n")
	} else {
		b.WriteString(");\n")
	}
}

// app is one application's sources and layout XML, as gator.Load takes them.
type app struct {
	name             string
	sources, layouts map[string]string
}

// loadApps returns every application the shape and ID tests cover: the 20
// corpus apps and Figure 1, the chain apps of every stratum the benchmark
// draws from (any seed, seeds 1 and 2 included), ModularApp(30), the
// example and demo apps, and the checks golden apps.
func loadApps(t *testing.T) []app {
	t.Helper()
	var out []app
	for _, a := range corpus.GenerateAll() {
		out = append(out, app{a.Name, a.BatchSources(), a.LayoutXML()})
	}
	fig := app{"Figure1", map[string]string{}, map[string]string{}}
	for _, f := range corpus.Figure1ClosedFiles() {
		fig.sources[f.Name] = alite.Print(f)
	}
	for name, l := range corpus.Figure1Layouts() {
		fig.layouts[name] = layout.Render(l)
	}
	out = append(out, fig)
	for i := 0; i < 9; i++ {
		for extra := 0; extra < 2; extra++ {
			nAct, depth := 40+5*i+extra, 12+3*i/2
			s, l := corpus.ModularChainApp(nAct, depth)
			out = append(out, app{fmt.Sprintf("chain-%d-%d", nAct, depth), s, l})
		}
	}
	s, l := corpus.ModularApp(30)
	out = append(out, app{"modular-30", s, l})
	dirs, err := filepath.Glob("../../examples/*")
	if err != nil {
		t.Fatal(err)
	}
	golden, err := filepath.Glob("../checks/testdata/*")
	if err != nil {
		t.Fatal(err)
	}
	for _, dir := range append(append(dirs, "../../testdata/notepad"), golden...) {
		a := app{dir, map[string]string{}, map[string]string{}}
		for _, pat := range []string{"*.alite", "*.xml", "layout/*.xml"} {
			files, err := filepath.Glob(filepath.Join(dir, pat))
			if err != nil {
				t.Fatal(err)
			}
			for _, f := range files {
				data, err := os.ReadFile(f)
				if err != nil {
					t.Fatal(err)
				}
				if strings.HasSuffix(f, ".alite") {
					a.sources[filepath.Base(f)] = string(data)
				} else {
					a.layouts[strings.TrimSuffix(filepath.Base(f), ".xml")] = string(data)
				}
			}
		}
		if len(a.sources) > 0 {
			out = append(out, a)
		}
	}
	return out
}

// parse parses an app's sources in name order, as gator.Load does.
func (a app) parse(t *testing.T) []*alite.File {
	t.Helper()
	names := make([]string, 0, len(a.sources))
	for n := range a.sources {
		names = append(names, n)
	}
	sort.Strings(names)
	files := make([]*alite.File, len(names))
	for i, n := range names {
		f, err := alite.Parse(n, a.sources[n])
		if err != nil {
			t.Fatalf("%s: %v", a.name, err)
		}
		files[i] = f
	}
	return files
}

// build parses and lowers an app.
func (a app) build(t *testing.T) *Program {
	t.Helper()
	layouts := map[string]*layout.Layout{}
	for name, xml := range a.layouts {
		l, err := layout.Parse(name, xml)
		if err != nil {
			t.Fatalf("%s: layout %s: %v", a.name, name, err)
		}
		layouts[name] = l
	}
	p, err := Build(a.parse(t), layouts)
	if err != nil {
		t.Fatalf("%s: %v", a.name, err)
	}
	return p
}

// TestShapeSignatureMatchesFmt: ShapeSignature writes exactly the bytes the
// fmt version wrote, on every file of every covered app.
func TestShapeSignatureMatchesFmt(t *testing.T) {
	apps := loadApps(t)
	files := 0
	for _, a := range apps {
		for _, f := range a.parse(t) {
			if got, want := ShapeSignature(f), fmtShapeSignature(f); got != want {
				t.Errorf("%s/%s: ShapeSignature differs from the fmt version:\n got %q\nwant %q", a.name, f.Name, got, want)
			}
			files++
		}
	}
	if len(apps) < 58 || files < 1000 {
		t.Fatalf("covered %d files of %d apps; the app set shrank", files, len(apps))
	}
}

// checkVarIDs reports every variable reachable from p's methods whose ID is
// out of range or shared with another variable.
func checkVarIDs(t *testing.T, name string, p *Program) {
	t.Helper()
	seen := map[int]*Var{}
	visit := func(v *Var) {
		if v == nil {
			return
		}
		if v.ID < 0 || v.ID >= p.NumVars() {
			t.Errorf("%s: %s has ID %d, outside [0, %d)", name, v, v.ID, p.NumVars())
		}
		if prev, ok := seen[v.ID]; ok && prev != v {
			t.Errorf("%s: %s and %s share ID %d", name, prev, v, v.ID)
		}
		seen[v.ID] = v
	}
	for _, c := range p.Classes {
		for _, m := range c.Methods {
			visit(m.This)
			for _, v := range m.Params {
				visit(v)
			}
			for _, v := range m.Locals {
				visit(v)
			}
			WalkStmts(m.Body, func(s Stmt) {
				visit(Def(s))
				for _, v := range Uses(s) {
					visit(v)
				}
			})
		}
	}
	if len(seen) == 0 {
		t.Errorf("%s: no variables", name)
	}
}

// TestVarIDsUnique: every variable of a built program has its own ID below
// NumVars, and so does every variable after PatchFile re-lowers a file,
// whose fresh locals get fresh IDs.
func TestVarIDsUnique(t *testing.T) {
	for _, a := range loadApps(t) {
		checkVarIDs(t, a.name, a.build(t))
	}

	sources, layouts := corpus.ModularApp(4)
	a := app{"modular-4", sources, layouts}
	p := a.build(t)
	before := p.NumVars()
	for _, edit := range corpus.ModularEdits(sources) {
		f, err := alite.Parse("act1.alite", edit)
		if err != nil {
			t.Fatal(err)
		}
		if err := PatchFile(p, f); err != nil {
			t.Fatal(err)
		}
		checkVarIDs(t, "patched modular-4", p)
	}
	if p.NumVars() <= before {
		t.Errorf("NumVars %d after two patches, %d before: re-lowered locals got no fresh IDs", p.NumVars(), before)
	}
}

// TestMethodsSortedOnce: MethodsSorted lists every class's methods sorted
// by key, as the per-call sort did, and allocates nothing.
func TestMethodsSortedOnce(t *testing.T) {
	sources, layouts := corpus.ModularApp(4)
	p := app{"modular-4", sources, layouts}.build(t)
	for _, c := range p.Classes {
		keys := make([]string, 0, len(c.Methods))
		for k := range c.Methods {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		got := c.MethodsSorted()
		if len(got) != len(keys) {
			t.Fatalf("%s: %d sorted methods, want %d", c.Name, len(got), len(keys))
		}
		for i, k := range keys {
			if got[i] != c.Methods[k] {
				t.Fatalf("%s: method %d is %s, want %s", c.Name, i, got[i].Key, k)
			}
		}
	}
	c := p.Class("Act1")
	if allocs := testing.AllocsPerRun(100, func() { c.MethodsSorted() }); allocs != 0 {
		t.Errorf("MethodsSorted allocates %.0f times per call, want 0", allocs)
	}
}

// TestScopeStackMatchesScopeMaps: for random sequences of block opens,
// closes, declarations and lookups over a small name set, the lowerer's
// variable stack resolves every name to the variable a stack of per-block
// maps resolves it to. Sequences nest deep and declare past scopeScan, so
// they cover the scanned stack, the name index, and shrinking back below
// scopeScan with the index in place.
func TestScopeStackMatchesScopeMaps(t *testing.T) {
	names := []string{"a", "b", "c", "d", "e", "f", "g", "h"}
	indexed := false
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		lw := &lowerer{}
		model := []map[string]*Var{{}}
		lookup := func(name string) *Var {
			for i := len(model) - 1; i >= 0; i-- {
				if v, ok := model[i][name]; ok {
					return v
				}
			}
			return nil
		}
		lw.pushScope()
		for i := 0; i < 300; i++ {
			name := names[rng.Intn(len(names))]
			switch p := rng.Intn(10); {
			case p < 2:
				lw.pushScope()
				model = append(model, map[string]*Var{})
			case p < 3 && len(model) > 1:
				lw.popScope()
				model = model[:len(model)-1]
			case p < 6:
				v := &Var{Name: name}
				lw.bind(v)
				model[len(model)-1][name] = v
			default:
				if lw.lookupVar(name) != lookup(name) {
					return false
				}
			}
			indexed = indexed || lw.index != nil
		}
		for _, name := range names {
			if lw.lookupVar(name) != lookup(name) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(2))}); err != nil {
		t.Fatal(err)
	}
	if !indexed {
		t.Fatal("no sequence grew past scopeScan; the test lost its coverage")
	}
}

// TestMethodKeyMatchesFmt: MethodKey builds the key the fmt version built,
// and newTemp names temporaries as "$t%d" did.
func TestMethodKeyMatchesFmt(t *testing.T) {
	ref, integer := alite.Type{Name: "View"}, alite.Type{Prim: alite.TypeInt}
	for _, params := range [][]alite.Type{nil, {ref}, {integer}, {ref, integer, ref}, {integer, integer}} {
		for _, name := range []string{"", "onClick", "Main", "é"} {
			if got, want := MethodKey(name, params), fmt.Sprintf("%s(%s)", name, KindSig(params)); got != want {
				t.Errorf("MethodKey(%q, %v) = %q, want %q", name, params, got, want)
			}
		}
	}
	lw := &lowerer{b: &builder{prog: &Program{}}, m: &Method{}}
	for i := 0; i < 120; i++ {
		if got, want := lw.newTemp(alite.Pos{}, integer, nil).Name, fmt.Sprintf("$t%d", i); got != want {
			t.Fatalf("temporary %d is named %q, want %q", i, got, want)
		}
	}
}

//go:build go1.24

// This file needs package weak, new in Go 1.24; older toolchains skip it.

package ir

import (
	"reflect"
	"runtime"
	"strings"
	"testing"
	"weak"

	"gator/internal/alite"
	"gator/internal/corpus"
)

// weakly returns a weak pointer to the object x, a pointer, points into.
func weakly(x any) weak.Pointer[byte] {
	return weak.Make((*byte)(reflect.ValueOf(x).UnsafePointer()))
}

// patchedOut holds weak pointers to what lowering made for one file's
// bodies: their locals and temporaries, and their statements.
func patchedOut(t *testing.T, p *Program, file string) (vars, stmts []weak.Pointer[byte]) {
	t.Helper()
	for _, c := range p.AppClasses() {
		if c.Pos.File != file {
			continue
		}
		for _, m := range c.MethodsSorted() {
			for _, v := range m.Locals {
				if v != m.This && !isParam(m, v) {
					vars = append(vars, weakly(v))
				}
			}
			for _, s := range m.Body {
				stmts = append(stmts, weakly(s))
			}
		}
	}
	if len(vars) == 0 || len(stmts) == 0 {
		t.Fatalf("%s: %d lowered variables and %d statements, want some of each", file, len(vars), len(stmts))
	}
	return vars, stmts
}

func isParam(m *Method, v *Var) bool {
	for _, p := range m.Params {
		if p == v {
			return true
		}
	}
	return false
}

func patch(t *testing.T, p *Program, file, src string) {
	t.Helper()
	f, err := alite.Parse(file, src)
	if err != nil {
		t.Fatal(err)
	}
	if err := PatchFile(p, f); err != nil {
		t.Fatal(err)
	}
}

// TestPatchFileFreesReplacedBodies: once a second patch of one file
// replaces the bodies a first patch lowered, the garbage collector frees
// every variable and statement of the first patch. That holds when the
// second patch shortens onCreate from 16 locals to 2, which a Locals slice
// truncated in place would keep reachable past its new length, and for a
// same-shape edit, which variables from a slab shared across patches would
// keep alive.
func TestPatchFileFreesReplacedBodies(t *testing.T) {
	sources, layouts := corpus.ModularApp(3)
	edits := corpus.ModularEdits(sources)
	base := sources["act1.alite"]
	const open, next = "\tvoid onCreate() {\n", "\tvoid onPanelClick"
	start, end := strings.Index(base, open)+len(open), strings.Index(base, next)
	short := base[:start] +
		"\t\tthis.setContentView(R.layout.act1);\n" +
		"\t\tView btn = this.findViewById(R.id.act1_btn);\n" +
		"\t}\n" + base[end:]
	for _, tc := range []struct{ name, second string }{
		{"shortened onCreate", short},
		{"same-shape edit", edits[1]},
	} {
		p := app{"modular-3", sources, layouts}.build(t)
		patch(t, p, "act1.alite", edits[0])
		vars, stmts := patchedOut(t, p, "act1.alite")
		patch(t, p, "act1.alite", tc.second)
		runtime.GC()
		runtime.GC()
		for what, ws := range map[string][]weak.Pointer[byte]{"variables": vars, "statements": stmts} {
			alive := 0
			for _, w := range ws {
				if w.Value() != nil {
					alive++
				}
			}
			if alive > 0 {
				t.Errorf("%s: %d of the first patch's %d %s still reachable after the second patch", tc.name, alive, len(ws), what)
			}
		}
		runtime.KeepAlive(p)
	}
}

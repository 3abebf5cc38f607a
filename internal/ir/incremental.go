package ir

// Incremental re-lowering. An edit that changes only method bodies leaves
// every resolution-stage artifact of a Program intact: the class set, the
// inheritance hierarchy, field and method signatures, and the layout/R
// tables. PatchFile exploits that: it re-lowers the bodies of one edited
// source file in place, keeping every pointer of the untouched files
// (classes, fields, methods, receiver and parameter variables) identical.
// The constraint graph built from a patched Program is therefore
// node-for-node identical to the graph a from-scratch Build of the edited
// sources would produce, which is what makes incremental re-analysis
// byte-equivalent to a cold run (see DESIGN.md, "Incremental solving").
//
// ShapeSignature decides eligibility: two versions of a file with equal
// signatures differ at most in method bodies (and source positions, which
// PatchFile refreshes). Any other difference — a new class, a changed
// supertype, a renamed parameter — forces the caller onto the full-rebuild
// path.

import (
	"fmt"
	"strings"

	"gator/internal/alite"
)

// ShapeSignature fingerprints everything in a parsed source file except
// method bodies: declaration order and kinds, class names, supertypes,
// implemented interfaces, field names and types, and full method signatures
// including parameter names and whether a body is present. Positions are
// deliberately excluded — an edit that only shifts line numbers keeps the
// shape, and PatchFile refreshes the recorded positions.
func ShapeSignature(f *alite.File) string {
	var b strings.Builder
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *alite.ClassDecl:
			b.WriteString("class ")
			b.WriteString(d.Name)
			b.WriteString(" extends ")
			b.WriteString(d.Super)
			b.WriteString(" implements ")
			writeJoined(&b, d.Implements)
			b.WriteByte('\n')
			for _, fd := range d.Fields {
				b.WriteString("  field ")
				b.WriteString(fd.Name)
				b.WriteByte(' ')
				b.WriteString(fd.Type.String())
				b.WriteByte('\n')
			}
			for _, md := range d.Methods {
				writeMethodShape(&b, md)
			}
		case *alite.InterfaceDecl:
			b.WriteString("interface ")
			b.WriteString(d.Name)
			b.WriteString(" extends ")
			writeJoined(&b, d.Extends)
			b.WriteByte('\n')
			for _, md := range d.Methods {
				writeMethodShape(&b, md)
			}
		}
	}
	return b.String()
}

// writeJoined writes names separated by commas, as strings.Join(names, ",")
// would return them.
func writeJoined(b *strings.Builder, names []string) {
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(n)
	}
}

func writeMethodShape(b *strings.Builder, md *alite.MethodDecl) {
	if md.IsCtor {
		b.WriteString("  ctor ")
	} else {
		b.WriteString("  method ")
	}
	b.WriteString(md.Return.String())
	b.WriteByte(' ')
	b.WriteString(md.Name)
	b.WriteByte('(')
	for i, p := range md.Params {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(p.Type.String())
		b.WriteByte(' ')
		b.WriteString(p.Name)
	}
	if md.Body != nil {
		b.WriteString(") {}\n")
	} else {
		b.WriteString(");\n")
	}
}

// PatchFile re-lowers the method bodies declared in one edited source file,
// mutating p in place. The caller must have verified that the new file's
// ShapeSignature equals the old one's and that f.Name was part of the
// original Build; PatchFile trusts both and errors out defensively when a
// declaration does not line up.
//
// On success, p is structurally identical to a from-scratch Build of the
// edited sources: clean files keep their exact pointers, the dirty file's
// methods keep their identity (class, key, receiver, parameters) with fresh
// bodies, locals, and positions, and Program.Opaque is rebuilt in original
// file order. On error, p may hold a mix of old and new bodies and must be
// discarded.
func PatchFile(p *Program, f *alite.File) error {
	known := false
	for _, name := range p.fileOrder {
		if name == f.Name {
			known = true
			break
		}
	}
	if !known {
		return fmt.Errorf("ir: patch: file %s was not part of the original build", f.Name)
	}

	b := newBuilder(p)
	p.opaqueByFile[f.Name] = nil

	for _, d := range f.Decls {
		c := p.Classes[d.DeclName()]
		if c == nil || c.IsPlatform || c.Pos.File != f.Name {
			return fmt.Errorf("ir: patch: class %s does not belong to %s", d.DeclName(), f.Name)
		}
		c.Pos = d.DeclPos()
		switch d := d.(type) {
		case *alite.ClassDecl:
			if err := b.patchClass(c, d); err != nil {
				return err
			}
		case *alite.InterfaceDecl:
			for _, md := range d.Methods {
				m, err := b.patchTarget(c, md)
				if err != nil {
					return err
				}
				m.Pos = md.Pos
			}
		}
	}
	// Lower the new bodies exactly as lowerBodies does, from this patch's
	// own variable slab. Each body's old locals and temporaries go with the
	// Locals slice lowering replaces, and their IDs are retired; the
	// receiver and parameters stay.
	for _, mb := range b.bodies {
		p.retiredVars += len(mb.m.Locals) - len(mb.m.Params)
		if mb.m.This != nil {
			p.retiredVars--
		}
	}
	b.lowerBodies()
	if err := b.errs.Err(); err != nil {
		return err
	}
	p.rebuildOpaque()
	return nil
}

// patchClass refreshes positions and records every body-bearing method of
// one class declaration for re-lowering.
func (b *builder) patchClass(c *Class, cd *alite.ClassDecl) error {
	for _, md := range cd.Methods {
		m, err := b.patchTarget(c, md)
		if err != nil {
			return err
		}
		m.Pos = md.Pos
		if m.This != nil {
			m.This.Pos = md.Pos
		}
		for i, prm := range md.Params {
			m.Params[i].Pos = prm.Pos
		}
		if md.Body != nil {
			b.bodies = append(b.bodies, methodBody{m: m, body: md.Body})
		}
	}
	return nil
}

// patchTarget resolves the Method a declaration lines up with, verifying
// the shape contract (same key, same parameter count and names).
func (b *builder) patchTarget(c *Class, md *alite.MethodDecl) (*Method, error) {
	m := c.Methods[declKey(md)]
	if m == nil || len(m.Params) != len(md.Params) {
		return nil, fmt.Errorf("ir: patch: method %s.%s does not match the built program (shape changed?)", c.Name, md.Name)
	}
	for i, prm := range md.Params {
		if m.Params[i].Name != prm.Name {
			return nil, fmt.Errorf("ir: patch: parameter %d of %s.%s renamed (shape changed?)", i, c.Name, md.Name)
		}
	}
	if (m.Body == nil) != (md.Body == nil) {
		return nil, fmt.Errorf("ir: patch: method %s.%s gained or lost its body (shape changed?)", c.Name, md.Name)
	}
	return m, nil
}

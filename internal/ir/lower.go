package ir

import (
	"strconv"

	"gator/internal/alite"
)

// lowerer lowers method bodies from AST to three-address statements,
// performing name resolution and type checking along the way. A builder
// has one, reset for each body, so its stacks grow once per build instead
// of once per method.
type lowerer struct {
	b *builder
	m *Method
	// vars is the scope stack: every variable in scope, outermost first,
	// parameters at the bottom. marks holds len(vars) at the start of each
	// open block; closing the block truncates vars back to its mark.
	vars  []*Var
	marks []int
	// index maps a name to the vars position of its innermost binding, and
	// shadow[i] is the position of the binding vars[i] hides (-1 for none).
	// Both stay nil while vars holds at most scopeScan variables: every
	// method of the 20 corpus apps has at most 18 parameters and locals.
	index  map[string]int
	shadow []int
	temps  int
	// locals collects the body's Method.Locals, receiver and parameters
	// first; lowerBody copies it out at its exact length.
	locals []*Var
}

// scopeScan is the scope-stack depth up to which lookupVar scans. A method
// that declares more variables than this (a few chain-app methods, with up
// to 55) gets a name index, so lowering stays linear in the number of
// declarations: scanning alone took 5.0 s for a method with 40k locals.
const scopeScan = 32

func (lw *lowerer) errf(pos alite.Pos, format string, args ...any) {
	lw.b.errs.Add(pos, format, args...)
}

// lowerBody lowers a method body with m's parameters in scope. It sets
// m.Locals to the receiver, the parameters, and the body's locals and
// temporaries; a re-lowered body's old locals are dropped with their slice.
func (b *builder) lowerBody(m *Method, body *alite.Block) []Stmt {
	lw := &b.lw
	lw.m, lw.temps, lw.index = m, 0, nil
	lw.vars, lw.marks, lw.shadow = lw.vars[:0], lw.marks[:0], lw.shadow[:0]
	lw.locals = lw.locals[:0]
	if m.This != nil {
		lw.locals = append(lw.locals, m.This)
	}
	lw.locals = append(lw.locals, m.Params...)
	for _, p := range m.Params {
		lw.bind(p)
	}
	stmts := lw.block(body)
	m.Locals = make([]*Var, len(lw.locals))
	copy(m.Locals, lw.locals)
	return stmts
}

func (lw *lowerer) pushScope() { lw.marks = append(lw.marks, len(lw.vars)) }

func (lw *lowerer) popScope() {
	mark := lw.marks[len(lw.marks)-1]
	lw.marks = lw.marks[:len(lw.marks)-1]
	if lw.index != nil {
		for i := len(lw.vars) - 1; i >= mark; i-- {
			if prev := lw.shadow[i]; prev >= 0 {
				lw.index[lw.vars[i].Name] = prev
			} else {
				delete(lw.index, lw.vars[i].Name)
			}
		}
		lw.shadow = lw.shadow[:mark]
	}
	lw.vars = lw.vars[:mark]
}

// lookupVar resolves a name to its innermost binding, so a re-declared
// name resolves to its latest declaration.
func (lw *lowerer) lookupVar(name string) *Var {
	if lw.index != nil {
		if i, ok := lw.index[name]; ok {
			return lw.vars[i]
		}
		return nil
	}
	for i := len(lw.vars) - 1; i >= 0; i-- {
		if v := lw.vars[i]; v.Name == name {
			return v
		}
	}
	return nil
}

// bind pushes v onto the scope stack, in the innermost open block.
func (lw *lowerer) bind(v *Var) {
	lw.vars = append(lw.vars, v)
	switch {
	case lw.index != nil:
		lw.indexVar(len(lw.vars) - 1)
	case len(lw.vars) > scopeScan:
		lw.index = make(map[string]int, 2*len(lw.vars))
		lw.shadow = make([]int, 0, 2*len(lw.vars))
		for i := range lw.vars {
			lw.indexVar(i)
		}
	}
}

// indexVar makes vars[i] the indexed binding of its name.
func (lw *lowerer) indexVar(i int) {
	name := lw.vars[i].Name
	prev, ok := lw.index[name]
	if !ok {
		prev = -1
	}
	lw.shadow = append(lw.shadow, prev)
	lw.index[name] = i
}

func (lw *lowerer) declareVar(pos alite.Pos, name string, t alite.Type, tc *Class) *Var {
	if lw.lookupVar(name) != nil {
		lw.errf(pos, "variable %s is already declared", name)
	}
	v := lw.newLocal(Var{Name: name, Type: t, TypeClass: tc, Method: lw.m, Pos: pos})
	lw.bind(v)
	return v
}

func (lw *lowerer) newTemp(pos alite.Pos, t alite.Type, tc *Class) *Var {
	v := lw.newLocal(Var{Name: tempName(lw.temps), Type: t, TypeClass: tc, Method: lw.m, Temp: true, Pos: pos})
	lw.temps++
	return v
}

// newLocal adds v to the body's locals, carved from the builder's slab.
func (lw *lowerer) newLocal(v Var) *Var {
	v.Index = len(lw.locals)
	p := lw.b.prog.newVar(lw.b.vars.Alloc(v))
	lw.locals = append(lw.locals, p)
	return p
}

// tempNames holds the first temporaries' names, so naming one allocates
// nothing: the most any corpus method needs is 103.
var tempNames = func() (names [128]string) {
	for i := range names {
		names[i] = "$t" + strconv.Itoa(i)
	}
	return names
}()

// tempName returns the name of a body's i-th temporary.
func tempName(i int) string {
	if i < len(tempNames) {
		return tempNames[i]
	}
	return "$t" + strconv.Itoa(i)
}

// assignable reports whether a value of type (src, srcClass) can be assigned
// to (dst, dstClass) without a cast. isNull marks the null literal.
func assignable(src alite.Type, srcClass *Class, dst alite.Type, dstClass *Class, isNull bool) bool {
	if dst.Prim == alite.TypeInt {
		return src.Prim == alite.TypeInt
	}
	if !dst.IsRef() {
		return false
	}
	if isNull {
		return true
	}
	if !src.IsRef() || srcClass == nil || dstClass == nil {
		return false
	}
	return srcClass.SubtypeOf(dstClass)
}

func (lw *lowerer) block(b *alite.Block) []Stmt {
	lw.pushScope()
	defer lw.popScope()
	// Non-nil even when empty: a nil Body marks abstract methods. Lowering
	// makes about 1.3 statements per source statement.
	out := make([]Stmt, 0, len(b.Stmts)+len(b.Stmts)/2+1)
	for _, s := range b.Stmts {
		out = lw.stmt(out, s)
	}
	return out
}

func (lw *lowerer) stmt(out []Stmt, s alite.Stmt) []Stmt {
	switch s := s.(type) {
	case *alite.LocalDecl:
		t, tc := lw.b.resolveType(s.Type, s.Pos)
		if !t.IsRef() && t.Prim != alite.TypeInt {
			lw.errf(s.Pos, "variable %s cannot have type %s", s.Name, t)
		}
		v := lw.declareVar(s.Pos, s.Name, t, tc)
		if s.Init != nil {
			return lw.assignInto(out, v, s.Init, s.Pos)
		}
		return out

	case *alite.AssignStmt:
		switch target := s.Target.(type) {
		case *alite.VarExpr:
			v := lw.lookupVar(target.Name)
			if v == nil {
				lw.errf(target.Pos, "undefined variable %s", target.Name)
				return out
			}
			return lw.assignInto(out, v, s.Value, s.Pos)
		case *alite.FieldExpr:
			var base *Var
			out, base = lw.expr(out, target.Base)
			if base == nil {
				return out
			}
			fld := lw.resolveField(base, target.Name, target.Pos)
			if fld == nil {
				return out
			}
			var src *Var
			out, src = lw.expr(out, s.Value)
			if src == nil {
				return out
			}
			_, isNull := s.Value.(*alite.NullExpr)
			if !assignable(src.Type, src.TypeClass, fld.Type, fld.TypeClass, isNull) {
				lw.errf(s.Pos, "cannot assign %s to field %s of type %s", src.Type, fld.Sig(), fld.Type)
			}
			return append(out, &Store{Base: base, Field: fld, Src: src, At: s.Pos})
		default:
			lw.errf(s.Pos, "invalid assignment target")
			return out
		}

	case *alite.ExprStmt:
		switch x := s.X.(type) {
		case *alite.CallExpr:
			out, _ = lw.call(out, x, nil)
			return out
		case *alite.NewExpr:
			out, _ = lw.newExpr(out, x, nil)
			return out
		default:
			lw.errf(s.Pos, "expression statement must be a call")
			return out
		}

	case *alite.ReturnStmt:
		ret := lw.m.Return
		if s.Value == nil {
			if ret.Prim != alite.TypeVoid {
				lw.errf(s.Pos, "missing return value in %s", lw.m.QualifiedName())
			}
			return append(out, &Return{At: s.Pos})
		}
		if ret.Prim == alite.TypeVoid {
			lw.errf(s.Pos, "void method %s returns a value", lw.m.QualifiedName())
			return out
		}
		var v *Var
		out, v = lw.expr(out, s.Value)
		if v == nil {
			return out
		}
		_, isNull := s.Value.(*alite.NullExpr)
		if !assignable(v.Type, v.TypeClass, ret, lw.m.ReturnClass, isNull) {
			lw.errf(s.Pos, "cannot return %s from %s (declared %s)", v.Type, lw.m.QualifiedName(), ret)
		}
		return append(out, &Return{Src: v, At: s.Pos})

	case *alite.IfStmt:
		var cond Cond
		out, cond = lw.cond(out, s.Cond)
		st := &If{Cond: cond, Then: lw.block(s.Then), At: s.Pos}
		if s.Else != nil {
			st.Else = lw.block(s.Else)
		}
		return append(out, st)

	case *alite.WhileStmt:
		var cond Cond
		out, cond = lw.cond(out, s.Cond)
		return append(out, &While{Cond: cond, Body: lw.block(s.Body), At: s.Pos})

	default:
		lw.errf(s.StmtPos(), "unsupported statement %T", s)
		return out
	}
}

func (lw *lowerer) cond(out []Stmt, c alite.Cond) ([]Stmt, Cond) {
	if c.Nondet {
		return out, Cond{Nondet: true}
	}
	var v *Var
	out, v = lw.expr(out, c.X)
	if v == nil {
		return out, Cond{Nondet: true}
	}
	if !v.Type.IsRef() {
		lw.errf(c.Pos, "null comparison requires a reference operand, got %s", v.Type)
	}
	return out, Cond{X: v, Negated: c.Negated}
}

// assignInto lowers "dst = value", writing directly into dst when the value
// form produces a result (avoiding a temporary).
func (lw *lowerer) assignInto(out []Stmt, dst *Var, value alite.Expr, pos alite.Pos) []Stmt {
	checkedAssign := func(src *Var, isNull bool) {
		if src == nil {
			return
		}
		if !assignable(src.Type, src.TypeClass, dst.Type, dst.TypeClass, isNull) {
			lw.errf(pos, "cannot assign %s to %s of type %s", src.Type, dst.Name, dst.Type)
		}
	}
	switch x := value.(type) {
	case *alite.NewExpr:
		var v *Var
		out, v = lw.newExpr(out, x, dst)
		if v != dst {
			checkedAssign(v, false)
			if v != nil {
				out = append(out, &Copy{Dst: dst, Src: v, At: pos})
			}
		} else {
			checkedAssign(v, false)
		}
		return out
	case *alite.CallExpr:
		var v *Var
		out, v = lw.callForValue(out, x, dst)
		if v != nil && v != dst {
			checkedAssign(v, false)
			out = append(out, &Copy{Dst: dst, Src: v, At: pos})
		} else {
			checkedAssign(v, false)
		}
		return out
	case *alite.NullExpr:
		if !dst.Type.IsRef() {
			lw.errf(pos, "cannot assign null to %s of type %s", dst.Name, dst.Type)
		}
		return append(out, &ConstNull{Dst: dst, At: pos})
	case *alite.IntExpr:
		if dst.Type.Prim != alite.TypeInt {
			lw.errf(pos, "cannot assign int to %s of type %s", dst.Name, dst.Type)
		}
		return append(out, &ConstInt{Dst: dst, Value: x.Value, At: pos})
	case *alite.RRefExpr:
		if dst.Type.Prim != alite.TypeInt {
			lw.errf(pos, "resource constants have type int; %s has type %s", dst.Name, dst.Type)
		}
		return lw.rref(out, x, dst)
	default:
		var v *Var
		out, v = lw.expr(out, value)
		if v == nil {
			return out
		}
		_, isNull := value.(*alite.NullExpr)
		checkedAssign(v, isNull)
		return append(out, &Copy{Dst: dst, Src: v, At: pos})
	}
}

// expr lowers an expression, returning the variable holding its value.
// A nil Var means an error was already reported.
func (lw *lowerer) expr(out []Stmt, e alite.Expr) ([]Stmt, *Var) {
	switch x := e.(type) {
	case *alite.VarExpr:
		if x.IsThis {
			if lw.m.This == nil {
				lw.errf(x.Pos, "'this' is not available here")
				return out, nil
			}
			return out, lw.m.This
		}
		v := lw.lookupVar(x.Name)
		if v == nil {
			lw.errf(x.Pos, "undefined variable %s", x.Name)
		}
		return out, v

	case *alite.NullExpr:
		t := lw.newTemp(x.Pos, alite.Type{Name: "Object"}, lw.b.prog.object)
		return append(out, &ConstNull{Dst: t, At: x.Pos}), t

	case *alite.IntExpr:
		t := lw.newTemp(x.Pos, alite.Type{Prim: alite.TypeInt}, nil)
		return append(out, &ConstInt{Dst: t, Value: x.Value, At: x.Pos}), t

	case *alite.RRefExpr:
		t := lw.newTemp(x.Pos, alite.Type{Prim: alite.TypeInt}, nil)
		return lw.rref(out, x, t), t

	case *alite.ClassLitExpr:
		c, ok := lw.b.prog.Classes[x.Name]
		if !ok {
			lw.errf(x.Pos, "unknown class %s in class literal", x.Name)
			return out, nil
		}
		cls := lw.b.prog.Classes["Class"]
		t := lw.newTemp(x.Pos, alite.Type{Name: "Class"}, cls)
		return append(out, &ConstClass{Dst: t, Class: c, At: x.Pos}), t

	case *alite.FieldExpr:
		var base *Var
		out, base = lw.expr(out, x.Base)
		if base == nil {
			return out, nil
		}
		fld := lw.resolveField(base, x.Name, x.Pos)
		if fld == nil {
			return out, nil
		}
		t := lw.newTemp(x.Pos, fld.Type, fld.TypeClass)
		return append(out, &Load{Dst: t, Base: base, Field: fld, At: x.Pos}), t

	case *alite.CallExpr:
		return lw.callForValue(out, x, nil)

	case *alite.NewExpr:
		return lw.newExpr(out, x, nil)

	case *alite.CastExpr:
		var src *Var
		out, src = lw.expr(out, x.X)
		if src == nil {
			return out, nil
		}
		t, tc := lw.b.resolveType(x.Type, x.Pos)
		if t.Prim == alite.TypeInt {
			if src.Type.Prim != alite.TypeInt {
				lw.errf(x.Pos, "cannot cast %s to int", src.Type)
			}
			return out, src
		}
		if !t.IsRef() {
			lw.errf(x.Pos, "cannot cast to %s", t)
			return out, nil
		}
		if !src.Type.IsRef() {
			lw.errf(x.Pos, "cannot cast %s to %s", src.Type, t)
			return out, nil
		}
		// Up- and downcasts are fine; unrelated class-to-class casts are
		// compile-time errors (interfaces are always allowed, as in Java).
		if src.TypeClass != nil && tc != nil &&
			!src.TypeClass.IsInterface && !tc.IsInterface &&
			!src.TypeClass.SubtypeOf(tc) && !tc.SubtypeOf(src.TypeClass) {
			lw.errf(x.Pos, "impossible cast from %s to %s", src.Type, t)
		}
		dst := lw.newTemp(x.Pos, t, tc)
		return append(out, &Copy{Dst: dst, Src: src, CastTo: tc, At: x.Pos}), dst

	default:
		lw.errf(e.ExprPos(), "unsupported expression %T", e)
		return out, nil
	}
}

func (lw *lowerer) rref(out []Stmt, x *alite.RRefExpr, dst *Var) []Stmt {
	p := lw.b.prog
	var id int
	switch {
	case x.Layout:
		lid, ok := p.R.LayoutID(x.Name)
		if !ok {
			lw.errf(x.Pos, "R.layout.%s does not match any layout file", x.Name)
			return out
		}
		id = lid
	case x.Str:
		// String resources have no XML source in the ALite abstraction;
		// the constants are registered on first use, like view ids below.
		id = p.R.AddStringID(x.Name)
	default:
		// View ids referenced only from code (for setId) are registered on
		// first use, like aapt does for @+id declarations.
		id = p.R.AddViewID(x.Name)
	}
	return append(out, &ConstRes{Dst: dst, ID: id, Layout: x.Layout, Str: x.Str, Name: x.Name, At: x.Pos})
}

func (lw *lowerer) resolveField(base *Var, name string, pos alite.Pos) *Field {
	if !base.Type.IsRef() || base.TypeClass == nil {
		lw.errf(pos, "field access on non-reference %s", base.Name)
		return nil
	}
	fld := base.TypeClass.LookupField(name)
	if fld == nil {
		lw.errf(pos, "class %s has no field %s", base.TypeClass.Name, name)
	}
	return fld
}

// newExpr lowers new C(args). If dst is non-nil and type-compatible, the
// allocation writes directly into it.
func (lw *lowerer) newExpr(out []Stmt, x *alite.NewExpr, dst *Var) ([]Stmt, *Var) {
	c, ok := lw.b.prog.Classes[x.Class]
	if !ok {
		lw.errf(x.Pos, "unknown class %s", x.Class)
		return out, nil
	}
	if c.IsInterface {
		lw.errf(x.Pos, "cannot instantiate interface %s", c.Name)
		return out, nil
	}
	var args []*Var
	out, args, ok = lw.args(out, x.Args)
	if !ok {
		return out, nil
	}
	var ctor *Method
	if len(c.Methods) > 0 || !c.IsPlatform {
		key := methodKey(c.Name, args, varType)
		ctor = c.Methods[key]
		if ctor == nil && len(args) > 0 {
			lw.errf(x.Pos, "class %s has no constructor %s", c.Name, key)
			return out, nil
		}
		if ctor == nil {
			// Implicit default constructor: legal only when the class
			// declares no explicit constructors.
			for _, m := range c.Methods {
				if m.IsCtor {
					lw.errf(x.Pos, "class %s requires explicit constructor arguments", c.Name)
					return out, nil
				}
			}
		}
	} else if len(args) > 0 {
		lw.errf(x.Pos, "platform class %s has no %d-argument constructor", c.Name, len(args))
		return out, nil
	}
	// Argument type checks against the resolved constructor.
	if ctor != nil {
		for i, p := range ctor.Params {
			_, isNull := x.Args[i].(*alite.NullExpr)
			if !assignable(args[i].Type, args[i].TypeClass, p.Type, p.TypeClass, isNull) {
				lw.errf(x.Pos, "argument %d: cannot pass %s as %s", i+1, args[i].Type, p.Type)
			}
		}
	}
	target := dst
	if target == nil || !target.Type.IsRef() || target.TypeClass == nil || !c.SubtypeOf(target.TypeClass) {
		target = lw.newTemp(x.Pos, alite.Type{Name: c.Name}, c)
	}
	return append(out, &New{Dst: target, Class: c, Ctor: ctor, Args: args, At: x.Pos}), target
}

// args lowers a call's arguments into a slice of their exact length (nil
// for none); ok is false once one fails to lower.
func (lw *lowerer) args(out []Stmt, xs []alite.Expr) (_ []Stmt, args []*Var, ok bool) {
	if len(xs) > 0 {
		args = make([]*Var, len(xs))
	}
	for i, a := range xs {
		out, args[i] = lw.expr(out, a)
		if args[i] == nil {
			return out, nil, false
		}
	}
	return out, args, true
}

func varType(v *Var) alite.Type { return v.Type }

// callForValue lowers a call whose result is needed.
func (lw *lowerer) callForValue(out []Stmt, x *alite.CallExpr, dst *Var) ([]Stmt, *Var) {
	out, inv := lw.call(out, x, dst)
	if inv == nil {
		return out, nil
	}
	if inv.Dst == nil {
		if inv.Target == nil {
			// Opaque platform call in expression position: the value is an
			// unknown platform object.
			inv.Dst = lw.newTemp(x.Pos, alite.Type{Name: "Object"}, lw.b.prog.object)
		} else {
			lw.errf(x.Pos, "method %s returns no value", x.Name)
			return out, nil
		}
	}
	return out, inv.Dst
}

// call lowers y.m(args). dst, when non-nil, receives the result directly if
// type-compatible; otherwise a temp is used. Returns the Invoke statement.
func (lw *lowerer) call(out []Stmt, x *alite.CallExpr, dst *Var) ([]Stmt, *Invoke) {
	var recv *Var
	out, recv = lw.expr(out, x.Base)
	if recv == nil {
		return out, nil
	}
	if !recv.Type.IsRef() || recv.TypeClass == nil {
		lw.errf(x.Pos, "method call on non-reference %s", recv.Name)
		return out, nil
	}
	out, args, ok := lw.args(out, x.Args)
	if !ok {
		return out, nil
	}
	key := methodKey(x.Name, args, varType)
	target := recv.TypeClass.LookupMethod(key)
	if target == nil {
		// Unknown methods are permitted on platform types (the platform has
		// a vast unmodeled API surface) but are errors on pure application
		// hierarchies, where every method is known.
		if !lw.hasPlatformAncestry(recv.TypeClass) {
			lw.errf(x.Pos, "class %s has no method %s", recv.TypeClass.Name, key)
			return out, nil
		}
	}
	inv := &Invoke{Recv: recv, Target: target, Key: key, Args: args, At: x.Pos}
	if target != nil {
		if target.IsCtor {
			lw.errf(x.Pos, "cannot call constructor %s directly", target.QualifiedName())
			return out, nil
		}
		for i, p := range target.Params {
			_, isNull := x.Args[i].(*alite.NullExpr)
			if !assignable(args[i].Type, args[i].TypeClass, p.Type, p.TypeClass, isNull) {
				lw.errf(x.Pos, "argument %d of %s: cannot pass %s as %s",
					i+1, target.QualifiedName(), args[i].Type, p.Type)
			}
		}
		if target.Return.Prim != alite.TypeVoid {
			if dst != nil && assignable(target.Return, target.ReturnClass, dst.Type, dst.TypeClass, false) {
				inv.Dst = dst
			} else {
				inv.Dst = lw.newTemp(x.Pos, target.Return, target.ReturnClass)
			}
		}
	} else {
		// Opaque platform call: trust the context. With a destination, the
		// declared type of the destination stands in for the return type.
		if dst != nil {
			inv.Dst = dst
		}
		lw.b.prog.addOpaque(lw.m, inv)
	}
	return append(out, inv), inv
}

// hasPlatformAncestry reports whether c inherits from a platform class other
// than Object (the boundary past which unmodeled methods may exist).
func (lw *lowerer) hasPlatformAncestry(c *Class) bool {
	for x := c; x != nil; x = x.Super {
		if x.IsPlatform && x != lw.b.prog.object {
			return true
		}
	}
	return false
}

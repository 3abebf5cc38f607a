package alite

import (
	"sync"

	"gator/internal/slab"
)

// Recursive-descent parser for ALite.
//
// Grammar (EBNF):
//
//	File       = { ClassDecl | InterfaceDecl } .
//	ClassDecl  = "class" IDENT [ "extends" IDENT ] [ "implements" IdentList ]
//	             "{" { Member } "}" .
//	IfaceDecl  = "interface" IDENT [ "extends" IdentList ] "{" { MethodSig } "}" .
//	Member     = FieldDecl | MethodDecl | CtorDecl .
//	FieldDecl  = Type IDENT ";" .
//	MethodDecl = ( Type | "void" ) IDENT "(" Params ")" Block .
//	CtorDecl   = IDENT "(" Params ")" Block .       // IDENT = class name
//	MethodSig  = ( Type | "void" ) IDENT "(" Params ")" ";" .
//	Block      = "{" { Stmt } "}" .
//	Stmt       = LocalDecl | Assign | ExprStmt | Return | If | While .
//	LocalDecl  = Type IDENT [ "=" Expr ] ";" .
//	Assign     = Postfix "=" Expr ";" .             // Postfix must be l-value
//	ExprStmt   = Postfix ";" .                      // Postfix must be a call
//	Return     = "return" [ Expr ] ";" .
//	If         = "if" "(" Cond ")" Block [ "else" ( Block | If ) ] .
//	While      = "while" "(" Cond ")" Block .
//	Cond       = "*" | Expr ( "==" | "!=" ) "null" .
//	Expr       = "new" IDENT "(" Args ")" | "null" | INT
//	           | "R" "." ("layout"|"id") "." IDENT
//	           | "(" Type ")" Expr                  // cast
//	           | "(" Expr ")" | Postfix .
//	Postfix    = Primary { "." IDENT [ "(" Args ")" ] } .
//	Primary    = "this" | IDENT | "(" ... ")" .
//	Type       = "int" | IDENT .

// MaxNesting bounds how deeply a source file may nest. Each block, if,
// else-if and while statement, parenthesized expression or cast, call
// argument list, and each link of a selector chain counts one level.
// Deeper input is a positioned parse error: without the bound, a large
// enough input would exhaust the goroutine stack here or in the recursive
// passes downstream (lowering, printing), a fatal error no recover can
// catch.
const MaxNesting = 1000

// Parser parses one Lexer's token stream into a *File. It reads tokens on
// demand through a three-token lookahead window (the grammar peeks at most
// two tokens past the current one), so parsing allocates the AST but no
// token slice.
//
// The AST itself comes in bulk. The node kinds that make up most of a file
// are carved from per-parser slabs, so their chunks live exactly as long as
// the File. A list (a block's statements, a call's arguments, a method's
// parameters, a class's members) collects on a reused stack and is copied
// out once, at its exact length, into a slab of its own. The stacks outlive
// the parse: Parse takes them from stackPool and puts them back, so a load
// of many small files grows them once, not once per file.
type Parser struct {
	lx    *Lexer
	la    [3]Token // la[0] is the current token, la[1:n] the peeked ones
	n     int      // filled tokens in la, at least 1
	errs  ErrorList
	file  string
	depth int

	methodDecls slab.Slab[MethodDecl]
	fieldDecls  slab.Slab[FieldDecl]
	paramDecls  slab.Slab[Param]
	blocks      slab.Slab[Block]
	returns     slab.Slab[ReturnStmt]
	localDecls  slab.Slab[LocalDecl]
	assigns     slab.Slab[AssignStmt]
	exprStmts   slab.Slab[ExprStmt]
	varExprs    slab.Slab[VarExpr]
	fieldExprs  slab.Slab[FieldExpr]
	calls       slab.Slab[CallExpr]

	stmts   list[Stmt]
	args    list[Expr]
	params  list[*Param]
	methods list[*MethodDecl]
	fields  list[*FieldDecl]
}

// newParser returns a parser over src. Each slab's first chunk holds one
// node per so many source bytes, roughly the sparsest that kind occurs in
// the corpus and chain apps (a method per 640 bytes, a variable reference
// per 32); later chunks are paced by the rest of the source (package slab).
func newParser(file, src string) *Parser {
	p := &Parser{lx: NewLexer(file, src), file: file}
	read := func() (done, total int) { return p.lx.off, len(p.lx.src) }
	n := len(src)
	p.methodDecls = slab.Paced[MethodDecl](n/640, read)
	p.fieldDecls = slab.Paced[FieldDecl](n/640, read)
	p.paramDecls = slab.Paced[Param](n/1280, read)
	p.blocks = slab.Paced[Block](n/640, read)
	p.returns = slab.Paced[ReturnStmt](n/1280, read)
	p.localDecls = slab.Paced[LocalDecl](n/128, read)
	p.assigns = slab.Paced[AssignStmt](n/640, read)
	p.exprStmts = slab.Paced[ExprStmt](n/720, read)
	p.varExprs = slab.Paced[VarExpr](n/32, read)
	p.fieldExprs = slab.Paced[FieldExpr](n/640, read)
	p.calls = slab.Paced[CallExpr](n/480, read)
	p.stmts.slab = slab.Paced[Stmt](n/64, read)
	p.args.slab = slab.Paced[Expr](n/128, read)
	p.params.slab = slab.Paced[*Param](n/1280, read)
	p.methods.slab = slab.Paced[*MethodDecl](n/640, read)
	p.fields.slab = slab.Paced[*FieldDecl](n/640, read)
	return p
}

// stacks are the list stacks of one parse, kept between parses in
// stackPool. Only the stacks are shared; every finished list moves into its
// own file's slab.
type stacks struct {
	stmts   []Stmt
	args    []Expr
	params  []*Param
	methods []*MethodDecl
	fields  []*FieldDecl
}

var stackPool = sync.Pool{New: func() any { return new(stacks) }}

// takeStacks gives p the pooled stacks.
func (p *Parser) takeStacks() *stacks {
	st := stackPool.Get().(*stacks)
	p.stmts.stack, p.args.stack, p.params.stack = st.stmts, st.args, st.params
	p.methods.stack, p.fields.stack = st.methods, st.fields
	return st
}

// returnStacks pools p's stacks again, cleared to their capacity so the
// pool pins no node of this file's AST.
func (p *Parser) returnStacks(st *stacks) {
	st.stmts, st.args, st.params = emptied(p.stmts.stack), emptied(p.args.stack), emptied(p.params.stack)
	st.methods, st.fields = emptied(p.methods.stack), emptied(p.fields.stack)
	stackPool.Put(st)
}

func emptied[T any](s []T) []T {
	clear(s[:cap(s)])
	return s[:0]
}

// list collects the elements of one kind of list on a stack, so lists of
// that kind can nest (a call's arguments hold calls); a finished list moves
// into the slab at its exact length.
type list[T any] struct {
	stack []T
	slab  slab.Slab[T]
}

func (l *list[T]) push(v T) { l.stack = append(l.stack, v) }

// open returns the mark of a list that starts now.
func (l *list[T]) open() int { return len(l.stack) }

// close returns the list pushed since mark, nil when empty, and pops it.
func (l *list[T]) close(mark int) []T {
	out := l.slab.Copy(l.stack[mark:])
	l.stack = l.stack[:mark]
	return out
}

// bailout unwinds the parser once input nests deeper than MaxNesting or the
// error list fills.
type bailout struct{}

// Parse parses one ALite source file. Lexical errors take precedence: when
// the lexer reports any, Parse returns them alone and no file, even if a
// parse error or a bailout came first.
func Parse(file, src string) (*File, error) {
	p := newParser(file, src)
	st := p.takeStacks()
	p.la[0], p.n = p.lx.Next(), 1
	f := p.parseFileBounded()
	p.returnStacks(st)
	// Finish lexing whatever the parser left unread: a lexical error past
	// the point where parsing stopped still decides the result.
	for p.lx.Next().Kind != EOF {
	}
	if err := p.lx.Errors().Err(); err != nil {
		return nil, err
	}
	return f, p.errs.Err()
}

// parseFileBounded is parseFile, returning an empty file once the parse
// bails out: on nesting deeper than MaxNesting, or on a full error list.
func (p *Parser) parseFileBounded() (f *File) {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(bailout); !ok {
				panic(r)
			}
			f = &File{Name: p.file}
		}
	}()
	return p.parseFile()
}

// MustParse is Parse that panics on error; for tests and embedded corpora.
func MustParse(file, src string) *File {
	f, err := Parse(file, src)
	if err != nil {
		panic(err)
	}
	return f
}

// enter opens one nesting level; past MaxNesting it records a positioned
// error and abandons the parse (so a level needs no leave on that path).
func (p *Parser) enter() {
	p.depth++
	if p.depth > MaxNesting {
		p.tooDeep()
	}
}

// tooDeep is enter's slow path, kept out of line so enter inlines.
func (p *Parser) tooDeep() {
	p.errorf(p.cur().Pos, "nesting deeper than %d levels", MaxNesting)
	panic(bailout{})
}

func (p *Parser) leave() { p.depth-- }

func (p *Parser) cur() Token     { return p.la[0] }
func (p *Parser) at(k Kind) bool { return p.la[0].Kind == k }

// peekKind returns the kind of the token n places past the current one,
// for n ≤ 2. Past the end it is EOF: the lexer keeps returning EOF.
func (p *Parser) peekKind(n int) Kind {
	for p.n <= n {
		p.la[p.n] = p.lx.Next()
		p.n++
	}
	return p.la[n].Kind
}

func (p *Parser) next() Token {
	t := p.la[0]
	if t.Kind == EOF {
		return t
	}
	if p.n == 1 {
		p.la[0] = p.lx.Next()
		return t
	}
	p.n--
	copy(p.la[:p.n], p.la[1:p.n+1])
	return t
}

func (p *Parser) expect(k Kind) Token {
	if p.at(k) {
		return p.next()
	}
	p.errorf(p.cur().Pos, "expected %s, found %s", k, p.cur())
	return Token{Kind: k, Pos: p.cur().Pos}
}

// errorf records a parse error. The error that fills the list, its "too many
// errors" entry, ends the parse the way nesting past MaxNesting does: error
// recovery would otherwise go on building made-up AST (16 MiB of stray ';'
// in a class body makes 8M fields) for errors nobody sees.
func (p *Parser) errorf(pos Pos, format string, args ...any) {
	p.errs.Add(pos, format, args...)
	if p.errs.full() {
		panic(bailout{})
	}
}

// sync skips tokens until one of the kinds (or EOF), for error recovery.
func (p *Parser) sync(kinds ...Kind) {
	for !p.at(EOF) {
		for _, k := range kinds {
			if p.at(k) {
				return
			}
		}
		p.next()
	}
}

func (p *Parser) parseFile() *File {
	f := &File{Name: p.file}
	for !p.at(EOF) {
		switch p.cur().Kind {
		case KwClass:
			f.Decls = append(f.Decls, p.parseClass())
		case KwInterface:
			f.Decls = append(f.Decls, p.parseInterface())
		default:
			p.errorf(p.cur().Pos, "expected 'class' or 'interface', found %s", p.cur())
			p.sync(KwClass, KwInterface)
		}
	}
	return f
}

func (p *Parser) parseIdentList() []string {
	var names []string
	names = append(names, p.expect(IDENT).Lit)
	for p.at(Comma) {
		p.next()
		names = append(names, p.expect(IDENT).Lit)
	}
	return names
}

func (p *Parser) parseClass() *ClassDecl {
	pos := p.expect(KwClass).Pos
	d := &ClassDecl{Pos: pos, Name: p.expect(IDENT).Lit}
	if p.at(KwExtends) {
		p.next()
		d.Super = p.expect(IDENT).Lit
	}
	if p.at(KwImplements) {
		p.next()
		d.Implements = p.parseIdentList()
	}
	p.expect(LBrace)
	methods, fields := p.methods.open(), p.fields.open()
	for !p.at(RBrace) && !p.at(EOF) {
		p.parseMember(d)
	}
	d.Methods, d.Fields = p.methods.close(methods), p.fields.close(fields)
	p.expect(RBrace)
	return d
}

func (p *Parser) parseInterface() *InterfaceDecl {
	pos := p.expect(KwInterface).Pos
	d := &InterfaceDecl{Pos: pos, Name: p.expect(IDENT).Lit}
	if p.at(KwExtends) {
		p.next()
		d.Extends = p.parseIdentList()
	}
	p.expect(LBrace)
	methods := p.methods.open()
	for !p.at(RBrace) && !p.at(EOF) {
		ret := p.parseType(true)
		name := p.expect(IDENT)
		m := p.methodDecls.Alloc(MethodDecl{Pos: name.Pos, Return: ret, Name: name.Lit})
		p.expect(LParen)
		m.Params = p.parseParams()
		p.expect(RParen)
		p.expect(Semi)
		p.methods.push(m)
	}
	d.Methods = p.methods.close(methods)
	p.expect(RBrace)
	return d
}

// parseMember parses a field, method, or constructor inside class d onto
// the parser's member stacks.
func (p *Parser) parseMember(d *ClassDecl) {
	// Constructor: IDENT '(' with IDENT == class name.
	if p.at(IDENT) && p.cur().Lit == d.Name && p.peekKind(1) == LParen {
		name := p.next()
		m := p.methodDecls.Alloc(MethodDecl{
			Pos:    name.Pos,
			Return: Type{Prim: TypeVoid},
			Name:   name.Lit,
			IsCtor: true,
		})
		p.expect(LParen)
		m.Params = p.parseParams()
		p.expect(RParen)
		m.Body = p.parseBlock()
		p.methods.push(m)
		return
	}
	typ := p.parseType(true)
	name := p.expect(IDENT)
	switch p.cur().Kind {
	case Semi:
		p.next()
		if !typ.IsRef() && typ.Prim != TypeInt {
			p.errorf(name.Pos, "field %s cannot have type %s", name.Lit, typ)
		}
		p.fields.push(p.fieldDecls.Alloc(FieldDecl{Pos: name.Pos, Type: typ, Name: name.Lit}))
	case LParen:
		m := p.methodDecls.Alloc(MethodDecl{Pos: name.Pos, Return: typ, Name: name.Lit})
		p.next()
		m.Params = p.parseParams()
		p.expect(RParen)
		m.Body = p.parseBlock()
		p.methods.push(m)
	default:
		p.errorf(p.cur().Pos, "expected ';' or '(' after member name, found %s", p.cur())
		p.sync(Semi, RBrace)
		if p.at(Semi) {
			p.next()
		}
	}
}

func (p *Parser) parseParams() []*Param {
	if p.at(RParen) {
		return nil
	}
	params := p.params.open()
	for {
		typ := p.parseType(false)
		name := p.expect(IDENT)
		p.params.push(p.paramDecls.Alloc(Param{Pos: name.Pos, Type: typ, Name: name.Lit}))
		if !p.at(Comma) {
			return p.params.close(params)
		}
		p.next()
	}
}

// parseType parses a type name. allowVoid permits 'void' (return types).
func (p *Parser) parseType(allowVoid bool) Type {
	switch p.cur().Kind {
	case KwInt:
		p.next()
		return Type{Prim: TypeInt}
	case KwVoid:
		if !allowVoid {
			p.errorf(p.cur().Pos, "'void' is not allowed here")
		}
		p.next()
		return Type{Prim: TypeVoid}
	case IDENT:
		return Type{Name: p.next().Lit}
	default:
		p.errorf(p.cur().Pos, "expected a type, found %s", p.cur())
		p.next()
		return Type{Name: "Object"}
	}
}

func (p *Parser) parseBlock() *Block {
	p.enter()
	b := p.blocks.Alloc(Block{Pos: p.cur().Pos})
	p.expect(LBrace)
	stmts := p.stmts.open()
	for !p.at(RBrace) && !p.at(EOF) {
		if s := p.parseStmt(); s != nil {
			p.stmts.push(s)
		}
	}
	b.Stmts = p.stmts.close(stmts)
	p.expect(RBrace)
	p.leave()
	return b
}

func (p *Parser) parseStmt() Stmt {
	switch p.cur().Kind {
	case KwReturn:
		pos := p.next().Pos
		s := p.returns.Alloc(ReturnStmt{Pos: pos})
		if !p.at(Semi) {
			s.Value = p.parseExpr()
		}
		p.expect(Semi)
		return s
	case KwIf:
		return p.parseIf()
	case KwWhile:
		p.enter()
		pos := p.next().Pos
		p.expect(LParen)
		cond := p.parseCond()
		p.expect(RParen)
		s := &WhileStmt{Pos: pos, Cond: cond, Body: p.parseBlock()}
		p.leave()
		return s
	case KwInt:
		return p.parseLocalDecl(p.parseType(false))
	case IDENT:
		// Either a local declaration "Type name ..." or an assignment /
		// expression statement beginning with an identifier.
		if p.peekKind(1) == IDENT {
			return p.parseLocalDecl(p.parseType(false))
		}
		return p.parseSimpleStmt()
	case KwThis:
		return p.parseSimpleStmt()
	case Semi:
		p.next() // empty statement
		return nil
	default:
		p.errorf(p.cur().Pos, "expected a statement, found %s", p.cur())
		p.sync(Semi, RBrace)
		if p.at(Semi) {
			p.next()
		}
		return nil
	}
}

func (p *Parser) parseIf() Stmt {
	p.enter()
	pos := p.expect(KwIf).Pos
	p.expect(LParen)
	cond := p.parseCond()
	p.expect(RParen)
	s := &IfStmt{Pos: pos, Cond: cond, Then: p.parseBlock()}
	if p.at(KwElse) {
		p.next()
		if p.at(KwIf) {
			elif := p.parseIf()
			s.Else = p.blocks.Alloc(Block{Pos: elif.StmtPos(), Stmts: []Stmt{elif}})
		} else {
			s.Else = p.parseBlock()
		}
	}
	p.leave()
	return s
}

func (p *Parser) parseLocalDecl(typ Type) Stmt {
	name := p.expect(IDENT)
	s := p.localDecls.Alloc(LocalDecl{Pos: name.Pos, Type: typ, Name: name.Lit})
	if p.at(Assign) {
		p.next()
		s.Init = p.parseExpr()
	}
	p.expect(Semi)
	return s
}

// parseSimpleStmt parses an assignment or a call expression statement.
func (p *Parser) parseSimpleStmt() Stmt {
	lhs := p.parsePostfix()
	if p.at(Assign) {
		pos := p.next().Pos
		switch t := lhs.(type) {
		case *VarExpr:
			if t.IsThis {
				p.errorf(lhs.ExprPos(), "cannot assign to 'this'")
			}
		case *FieldExpr:
		default:
			p.errorf(lhs.ExprPos(), "invalid assignment target")
		}
		s := p.assigns.Alloc(AssignStmt{Pos: pos, Target: lhs, Value: p.parseExpr()})
		p.expect(Semi)
		return s
	}
	if _, ok := lhs.(*CallExpr); !ok {
		p.errorf(lhs.ExprPos(), "expression statement must be a call")
	}
	p.expect(Semi)
	return p.exprStmts.Alloc(ExprStmt{Pos: lhs.ExprPos(), X: lhs})
}

func (p *Parser) parseCond() Cond {
	if p.at(Star) {
		return Cond{Pos: p.next().Pos, Nondet: true}
	}
	x := p.parseExpr()
	c := Cond{Pos: x.ExprPos(), X: x}
	switch p.cur().Kind {
	case EqEq:
		p.next()
	case BangEq:
		p.next()
		c.Negated = true
	default:
		p.errorf(p.cur().Pos, "expected '==' or '!=' in condition, found %s", p.cur())
		return c
	}
	p.expect(KwNull)
	return c
}

func (p *Parser) parseArgs() []Expr {
	p.enter()
	p.expect(LParen)
	args := p.args.open()
	if !p.at(RParen) {
		p.args.push(p.parseExpr())
		for p.at(Comma) {
			p.next()
			p.args.push(p.parseExpr())
		}
	}
	list := p.args.close(args)
	p.expect(RParen)
	p.leave()
	return list
}

func (p *Parser) parseExpr() Expr {
	switch p.cur().Kind {
	case KwNew:
		pos := p.next().Pos
		cls := p.expect(IDENT).Lit
		args := p.parseArgs()
		return p.parseSelectors(&NewExpr{Pos: pos, Class: cls, Args: args})
	case KwNull:
		return &NullExpr{Pos: p.next().Pos}
	case INT:
		t := p.next()
		v, err := ParseInt(t.Lit)
		if err != nil {
			p.errorf(t.Pos, "%v", err)
		}
		return &IntExpr{Pos: t.Pos, Value: v}
	case LParen:
		return p.parseParenExpr()
	default:
		return p.parsePostfix()
	}
}

// parseParenExpr handles both casts "(Type) expr" and grouping "(expr)".
// A cast is recognized when the parenthesized content is a single type name
// followed by an expression start.
func (p *Parser) parseParenExpr() Expr {
	p.enter()
	x := p.parseParenBody()
	p.leave()
	return x
}

// parseParenBody is parseParenExpr inside its nesting level.
func (p *Parser) parseParenBody() Expr {
	pos := p.expect(LParen).Pos
	if p.at(KwInt) && p.peekKind(1) == RParen {
		p.next()
		p.next()
		return &CastExpr{Pos: pos, Type: Type{Prim: TypeInt}, X: p.parseExpr()}
	}
	if p.at(IDENT) && p.peekKind(1) == RParen {
		after := p.peekKind(2)
		switch after {
		case IDENT, KwThis, KwNew, KwNull, LParen, INT:
			typ := Type{Name: p.next().Lit}
			p.next() // ')'
			return &CastExpr{Pos: pos, Type: typ, X: p.parseExpr()}
		}
	}
	x := p.parseExpr()
	p.expect(RParen)
	return p.parseSelectors(x)
}

func (p *Parser) parsePostfix() Expr {
	var x Expr
	switch p.cur().Kind {
	case KwThis:
		x = p.varExprs.Alloc(VarExpr{Pos: p.next().Pos, Name: "this", IsThis: true})
	case IDENT:
		t := p.next()
		// R.layout.name / R.id.name resource references.
		if t.Lit == "R" && p.at(Dot) {
			return p.parseRRef(t.Pos)
		}
		x = p.varExprs.Alloc(VarExpr{Pos: t.Pos, Name: t.Lit})
	case LParen:
		return p.parseParenExpr()
	default:
		p.errorf(p.cur().Pos, "expected an expression, found %s", p.cur())
		p.next()
		return &NullExpr{Pos: p.cur().Pos}
	}
	return p.parseSelectors(x)
}

// parseSelectors parses a selector chain onto x. Each link nests the
// chain one level deeper (it becomes the base of the next), so each counts
// toward MaxNesting until the chain ends.
func (p *Parser) parseSelectors(x Expr) Expr {
	base := p.depth
	for p.at(Dot) {
		p.enter()
		p.next()
		// Class literal: Ident.class.
		if p.at(KwClass) {
			tok := p.next()
			v, ok := x.(*VarExpr)
			if !ok || v.IsThis {
				p.errorf(tok.Pos, "'.class' requires a class name")
				continue
			}
			x = &ClassLitExpr{Pos: v.Pos, Name: v.Name}
			continue
		}
		name := p.expect(IDENT)
		if p.at(LParen) {
			x = p.calls.Alloc(CallExpr{Pos: name.Pos, Base: x, Name: name.Lit, Args: p.parseArgs()})
		} else {
			x = p.fieldExprs.Alloc(FieldExpr{Pos: name.Pos, Base: x, Name: name.Lit})
		}
	}
	p.depth = base
	return x
}

func (p *Parser) parseRRef(pos Pos) Expr {
	p.expect(Dot)
	kind := p.expect(IDENT)
	if kind.Lit != "layout" && kind.Lit != "id" && kind.Lit != "string" {
		p.errorf(kind.Pos, "expected 'layout', 'id', or 'string' after 'R.', found %q", kind.Lit)
	}
	p.expect(Dot)
	name := p.expect(IDENT)
	return &RRefExpr{Pos: pos, Layout: kind.Lit == "layout", Str: kind.Lit == "string", Name: name.Lit}
}

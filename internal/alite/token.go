// Package alite implements the frontend for ALite, the abstracted core
// language of the paper: a Java-like object-oriented language extended with
// the Android constructs relevant to GUI reference analysis (R.layout/R.id
// references and platform API calls).
//
// The package provides a lexer, a recursive-descent parser producing an AST,
// and a pretty-printer. Semantic resolution and lowering to the three-address
// IR consumed by the analysis live in package ir.
package alite

import "fmt"

// Kind identifies a lexical token class.
type Kind int

const (
	EOF Kind = iota
	IDENT
	INT // integer literal

	// Keywords.
	KwClass
	KwInterface
	KwExtends
	KwImplements
	KwNew
	KwReturn
	KwIf
	KwElse
	KwWhile
	KwNull
	KwThis
	KwVoid
	KwInt

	// Punctuation and operators.
	LBrace    // {
	RBrace    // }
	LParen    // (
	RParen    // )
	Semi      // ;
	Comma     // ,
	Dot       // .
	Assign    // =
	EqEq      // ==
	BangEq    // !=
	Star      // * (nondeterministic condition)
	LessColon // <: (unused; reserved)
)

var kindNames = map[Kind]string{
	EOF:          "end of file",
	IDENT:        "identifier",
	INT:          "integer literal",
	KwClass:      "'class'",
	KwInterface:  "'interface'",
	KwExtends:    "'extends'",
	KwImplements: "'implements'",
	KwNew:        "'new'",
	KwReturn:     "'return'",
	KwIf:         "'if'",
	KwElse:       "'else'",
	KwWhile:      "'while'",
	KwNull:       "'null'",
	KwThis:       "'this'",
	KwVoid:       "'void'",
	KwInt:        "'int'",
	LBrace:       "'{'",
	RBrace:       "'}'",
	LParen:       "'('",
	RParen:       "')'",
	Semi:         "';'",
	Comma:        "','",
	Dot:          "'.'",
	Assign:       "'='",
	EqEq:         "'=='",
	BangEq:       "'!='",
	Star:         "'*'",
}

func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

var keywords = map[string]Kind{
	"class":      KwClass,
	"interface":  KwInterface,
	"extends":    KwExtends,
	"implements": KwImplements,
	"new":        KwNew,
	"return":     KwReturn,
	"if":         KwIf,
	"else":       KwElse,
	"while":      KwWhile,
	"null":       KwNull,
	"this":       KwThis,
	"void":       KwVoid,
	"int":        KwInt,
}

// Pos is a source position.
type Pos struct {
	File string
	Line int // 1-based
	Col  int // 1-based, in bytes
}

func (p Pos) String() string {
	if p.File == "" {
		return fmt.Sprintf("%d:%d", p.Line, p.Col)
	}
	return fmt.Sprintf("%s:%d:%d", p.File, p.Line, p.Col)
}

// IsValid reports whether the position carries location information.
func (p Pos) IsValid() bool { return p.Line > 0 }

// Token is one lexical token.
type Token struct {
	Kind Kind
	Lit  string // text for IDENT and INT
	Pos  Pos
}

func (t Token) String() string {
	switch t.Kind {
	case IDENT, INT:
		return fmt.Sprintf("%s %q", t.Kind, t.Lit)
	default:
		return t.Kind.String()
	}
}

// Error is a frontend diagnostic with a source position.
type Error struct {
	Pos Pos
	Msg string
}

func (e *Error) Error() string {
	if e.Pos.IsValid() {
		return fmt.Sprintf("%s: %s", e.Pos, e.Msg)
	}
	return e.Msg
}

// MaxErrors bounds the diagnostics one ErrorList keeps. Past it, Add records
// one "too many errors" entry and then drops every further diagnostic
// without formatting it, so an input made of errors (a run of invalid
// characters, say) costs MaxErrors+1 of them, not one per error.
const MaxErrors = 100

// ErrorList collects diagnostics, at most MaxErrors of them plus one "too
// many errors" entry; it implements error.
type ErrorList []*Error

func (l ErrorList) Error() string {
	switch len(l) {
	case 0:
		return "no errors"
	case 1:
		return l[0].Error()
	}
	return fmt.Sprintf("%s (and %d more errors)", l[0], len(l)-1)
}

// Err returns the list as an error, or nil when empty.
func (l ErrorList) Err() error {
	if len(l) == 0 {
		return nil
	}
	return l
}

// Add appends a formatted diagnostic. The list's MaxErrors+1st diagnostic
// is "too many errors" at pos, and Add drops every one after it.
func (l *ErrorList) Add(pos Pos, format string, args ...any) {
	switch {
	case l.full():
	case len(*l) == MaxErrors:
		*l = append(*l, &Error{Pos: pos, Msg: "too many errors"})
	default:
		*l = append(*l, &Error{Pos: pos, Msg: fmt.Sprintf(format, args...)})
	}
}

// full reports whether Add drops everything from now on. The lexer checks
// it before boxing a rune for Add, so a run of invalid non-ASCII characters
// allocates nothing past the cap; the parser stops once it holds.
func (l ErrorList) full() bool { return len(l) > MaxErrors }

package alite

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime/debug"
	"strings"
	"testing"
	"unicode"
	"unicode/utf8"
)

// refLexer is the lexer as it was before its ASCII fast path: it decodes
// every rune with utf8.DecodeRuneInString and classifies every rune with
// package unicode, and Next recurses once per unexpected character. The
// tests below hold Lexer to it.
type refLexer struct {
	src       string
	file      string
	off       int
	line, col int
	errs      ErrorList
}

func (lx *refLexer) pos() Pos { return Pos{File: lx.file, Line: lx.line, Col: lx.col} }

func (lx *refLexer) peek() rune {
	if lx.off >= len(lx.src) {
		return -1
	}
	r, _ := utf8.DecodeRuneInString(lx.src[lx.off:])
	return r
}

func (lx *refLexer) advance() rune {
	if lx.off >= len(lx.src) {
		return -1
	}
	r, w := utf8.DecodeRuneInString(lx.src[lx.off:])
	lx.off += w
	if r == '\n' {
		lx.line++
		lx.col = 1
	} else {
		lx.col += w
	}
	return r
}

func refIdentStart(r rune) bool { return r == '_' || r == '$' || unicode.IsLetter(r) }
func refIdentPart(r rune) bool  { return refIdentStart(r) || unicode.IsDigit(r) }
func refHexDigit(r rune) bool {
	return unicode.IsDigit(r) || ('a' <= r && r <= 'f') || ('A' <= r && r <= 'F')
}

func (lx *refLexer) skipSpaceAndComments() {
	for {
		r := lx.peek()
		switch {
		case r == ' ' || r == '\t' || r == '\r' || r == '\n':
			lx.advance()
		case r == '/':
			if lx.off+1 < len(lx.src) {
				switch lx.src[lx.off+1] {
				case '/':
					for lx.peek() != '\n' && lx.peek() != -1 {
						lx.advance()
					}
					continue
				case '*':
					start := lx.pos()
					lx.advance()
					lx.advance()
					closed := false
					for lx.peek() != -1 {
						if lx.advance() == '*' && lx.peek() == '/' {
							lx.advance()
							closed = true
							break
						}
					}
					if !closed {
						lx.errs.Add(start, "unterminated block comment")
					}
					continue
				}
			}
			return
		default:
			return
		}
	}
}

func (lx *refLexer) Next() Token {
	lx.skipSpaceAndComments()
	pos := lx.pos()
	r := lx.peek()
	switch {
	case r == -1:
		return Token{Kind: EOF, Pos: pos}
	case refIdentStart(r):
		start := lx.off
		for refIdentPart(lx.peek()) {
			lx.advance()
		}
		lit := lx.src[start:lx.off]
		if kw, ok := keywords[lit]; ok {
			return Token{Kind: kw, Pos: pos}
		}
		return Token{Kind: IDENT, Lit: lit, Pos: pos}
	case unicode.IsDigit(r):
		start := lx.off
		for unicode.IsDigit(lx.peek()) {
			lx.advance()
		}
		if lx.off == start+1 && lx.src[start] == '0' && (lx.peek() == 'x' || lx.peek() == 'X') {
			lx.advance()
			for refHexDigit(lx.peek()) {
				lx.advance()
			}
		}
		return Token{Kind: INT, Lit: lx.src[start:lx.off], Pos: pos}
	}
	lx.advance()
	switch r {
	case '{':
		return Token{Kind: LBrace, Pos: pos}
	case '}':
		return Token{Kind: RBrace, Pos: pos}
	case '(':
		return Token{Kind: LParen, Pos: pos}
	case ')':
		return Token{Kind: RParen, Pos: pos}
	case ';':
		return Token{Kind: Semi, Pos: pos}
	case ',':
		return Token{Kind: Comma, Pos: pos}
	case '.':
		return Token{Kind: Dot, Pos: pos}
	case '*':
		return Token{Kind: Star, Pos: pos}
	case '=':
		if lx.peek() == '=' {
			lx.advance()
			return Token{Kind: EqEq, Pos: pos}
		}
		return Token{Kind: Assign, Pos: pos}
	case '!':
		if lx.peek() == '=' {
			lx.advance()
			return Token{Kind: BangEq, Pos: pos}
		}
		lx.errs.Add(pos, "unexpected character %q (expected '!=')", r)
		return lx.Next()
	}
	lx.errs.Add(pos, "unexpected character %q", r)
	return lx.Next()
}

// refTokenize is Tokenize over refLexer.
func refTokenize(file, src string) ([]Token, ErrorList) {
	lx := &refLexer{src: src, file: file, line: 1, col: 1}
	var toks []Token
	for {
		t := lx.Next()
		toks = append(toks, t)
		if t.Kind == EOF {
			return toks, lx.errs
		}
	}
}

// TestCharClassesMatchUnicode: the fast-path classifiers agree with the
// package unicode definitions they replace for every rune below U+3000
// (Latin, Greek, Cyrillic, Arabic-Indic and Devanagari digits, CJK
// punctuation) and for the end-of-input marker -1.
func TestCharClassesMatchUnicode(t *testing.T) {
	for r := rune(-1); r < 0x3000; r++ {
		start := r == '_' || r == '$' || unicode.IsLetter(r)
		if got := isIdentStart(r); got != start {
			t.Errorf("isIdentStart(%U) = %v, want %v", r, got, start)
		}
		if got, want := isIdentPart(r), start || unicode.IsDigit(r); got != want {
			t.Errorf("isIdentPart(%U) = %v, want %v", r, got, want)
		}
		if got, want := isDigit(r), unicode.IsDigit(r); got != want {
			t.Errorf("isDigit(%U) = %v, want %v", r, got, want)
		}
		if got, want := isHexDigit(r), refHexDigit(r); got != want {
			t.Errorf("isHexDigit(%U) = %v, want %v", r, got, want)
		}
	}
}

// TestTokenizeMatchesRuneReference: on random strings that mix ASCII
// identifiers, numbers, operators, comments and invalid characters with
// non-ASCII letters (é, µ), a non-ASCII digit (٣) and an invalid UTF-8 byte,
// Tokenize returns exactly the tokens and errors of the rune-at-a-time
// reference lexer.
func TestTokenizeMatchesRuneReference(t *testing.T) {
	pieces := []string{
		"a", "Z", "_", "$", "x", "0", "7", "0x", "1f", "é", "µ", "٣", "\xff",
		" ", "\t", "\r\n", "\n", "{", "}", "(", ")", ";", ",", ".", "*", "=",
		"==", "!", "!=", "#", "@", "/", "//", "/*", "*/", "class", "null",
	}
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 5000; trial++ {
		var b strings.Builder
		for i, n := 0, rng.Intn(40); i < n; i++ {
			b.WriteString(pieces[rng.Intn(len(pieces))])
		}
		src := b.String()
		got, err := Tokenize("f", src)
		want, wantErrs := refTokenize("f", src)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("Tokenize(%q):\n got %v\nwant %v", src, got, want)
		}
		var gotErrs ErrorList
		if err != nil && !errors.As(err, &gotErrs) {
			t.Fatalf("Tokenize(%q): error %T, want ErrorList", src, err)
		}
		if !reflect.DeepEqual(gotErrs, wantErrs) {
			t.Fatalf("Tokenize(%q) errors:\n got %v\nwant %v", src, gotErrs, wantErrs)
		}
	}
}

// TestInvalidCharacterRunUsesNoStack: a long run of unexpected characters
// lexes in constant stack, with one positioned error per character up to
// the list's cap and a "too many errors" entry after them. A Next that
// recursed once per character needed about 700 B of stack each (1.08 GB
// for 1.5 MB of '#'), so under a 1 MiB stack limit 100k of them is a fatal
// stack overflow.
func TestInvalidCharacterRunUsesNoStack(t *testing.T) {
	const n = 100_000
	defer debug.SetMaxStack(debug.SetMaxStack(1 << 20))
	toks, err := Tokenize("hash.alite", "class A {}\n"+strings.Repeat("#", n))
	var errs ErrorList
	if !errors.As(err, &errs) || len(errs) != MaxErrors+1 {
		t.Fatalf("got %d errors (%v), want %d", len(errs), err, MaxErrors+1)
	}
	first, last, over := errs[0], errs[MaxErrors-1], errs[MaxErrors]
	if first.Pos.String() != "hash.alite:2:1" || last.Pos.String() != fmt.Sprintf("hash.alite:2:%d", MaxErrors) ||
		first.Msg != `unexpected character '#'` || last.Msg != first.Msg {
		t.Fatalf("errors run from %v to %v, want hash.alite:2:1 to hash.alite:2:%d", first, last, MaxErrors)
	}
	if over.Pos.String() != fmt.Sprintf("hash.alite:2:%d", MaxErrors+1) || over.Msg != "too many errors" {
		t.Fatalf("entry past the cap is %v, want hash.alite:2:%d: too many errors", over, MaxErrors+1)
	}
	if k := toks[len(toks)-1].Kind; k != EOF || len(toks) != 5 {
		t.Fatalf("tokens %v, want class A { } EOF", toks)
	}
}

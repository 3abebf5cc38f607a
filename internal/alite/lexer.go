package alite

import (
	"fmt"
	"unicode"
	"unicode/utf8"
)

// Lexer tokenizes ALite source text.
type Lexer struct {
	src  string
	file string

	off  int // byte offset of the next rune
	line int
	col  int

	errs ErrorList
}

// NewLexer returns a lexer over src; file is used in positions.
func NewLexer(file, src string) *Lexer {
	return &Lexer{src: src, file: file, line: 1, col: 1}
}

// Errors returns the diagnostics accumulated so far.
func (lx *Lexer) Errors() ErrorList { return lx.errs }

func (lx *Lexer) pos() Pos { return Pos{File: lx.file, Line: lx.line, Col: lx.col} }

// peek returns the next rune without consuming it, or -1 at the end. A
// byte below utf8.RuneSelf is its own rune; only a byte above that starts a
// UTF-8 decode.
func (lx *Lexer) peek() rune {
	if lx.off >= len(lx.src) {
		return -1
	}
	if c := lx.src[lx.off]; c < utf8.RuneSelf {
		return rune(c)
	}
	r, _ := utf8.DecodeRuneInString(lx.src[lx.off:])
	return r
}

// advance consumes the next rune and returns it, or -1 at the end. Columns
// count bytes, so a multi-byte rune (or an invalid byte, decoded as
// utf8.RuneError of width 1) moves the column by its width.
func (lx *Lexer) advance() rune {
	if lx.off >= len(lx.src) {
		return -1
	}
	if c := lx.src[lx.off]; c < utf8.RuneSelf {
		lx.off++
		if c == '\n' {
			lx.line++
			lx.col = 1
		} else {
			lx.col++
		}
		return rune(c)
	}
	r, w := utf8.DecodeRuneInString(lx.src[lx.off:])
	lx.off += w
	lx.col += w
	return r
}

// ASCII character classes, so identifiers and numbers in all-ASCII source
// never reach package unicode. For every rune below utf8.RuneSelf the table
// agrees with unicode.IsLetter and unicode.IsDigit.
const (
	classIdentStart = 1 << iota // a letter, '_' or '$'
	classDigit                  // '0' through '9'
)

var asciiClass = func() (t [utf8.RuneSelf]uint8) {
	for c := 'a'; c <= 'z'; c++ {
		t[c] = classIdentStart
		t[c-'a'+'A'] = classIdentStart
	}
	t['_'], t['$'] = classIdentStart, classIdentStart
	for c := '0'; c <= '9'; c++ {
		t[c] = classDigit
	}
	return t
}()

func isIdentStart(r rune) bool {
	if 0 <= r && r < utf8.RuneSelf {
		return asciiClass[r]&classIdentStart != 0
	}
	return unicode.IsLetter(r)
}

func isIdentPart(r rune) bool {
	if 0 <= r && r < utf8.RuneSelf {
		return asciiClass[r] != 0
	}
	return unicode.IsLetter(r) || unicode.IsDigit(r)
}

func isDigit(r rune) bool {
	if 0 <= r && r < utf8.RuneSelf {
		return asciiClass[r]&classDigit != 0
	}
	return unicode.IsDigit(r)
}

// skipSpaceAndComments consumes whitespace, // line comments, and /* */
// block comments.
func (lx *Lexer) skipSpaceAndComments() {
	for {
		r := lx.peek()
		switch {
		case r == ' ' || r == '\t' || r == '\r' || r == '\n':
			lx.advance()
		case r == '/':
			// Look ahead without committing.
			if lx.off+1 < len(lx.src) {
				switch lx.src[lx.off+1] {
				case '/':
					for lx.peek() != '\n' && lx.peek() != -1 {
						lx.advance()
					}
					continue
				case '*':
					start := lx.pos()
					lx.advance() // '/'
					lx.advance() // '*'
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

// Next returns the next token. After EOF it keeps returning EOF. An
// unexpected character records one error and is skipped; Next loops to the
// token after it, so a run of them costs no stack.
func (lx *Lexer) Next() Token {
	for {
		lx.skipSpaceAndComments()
		pos := lx.pos()
		r := lx.peek()
		switch {
		case r == -1:
			return Token{Kind: EOF, Pos: pos}
		case isIdentStart(r):
			start := lx.off
			for isIdentPart(lx.peek()) {
				lx.advance()
			}
			lit := lx.src[start:lx.off]
			if kw, ok := keywords[lit]; ok {
				return Token{Kind: kw, Pos: pos}
			}
			return Token{Kind: IDENT, Lit: lit, Pos: pos}
		case isDigit(r):
			start := lx.off
			for isDigit(lx.peek()) {
				lx.advance()
			}
			// Hex literals appear in generated R constants.
			if lx.off == start+1 && lx.src[start] == '0' && (lx.peek() == 'x' || lx.peek() == 'X') {
				lx.advance()
				for isHexDigit(lx.peek()) {
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
		default:
			if !lx.errs.full() {
				lx.errs.Add(pos, "unexpected character %q", r)
			}
		}
	}
}

func isHexDigit(r rune) bool {
	return isDigit(r) || ('a' <= r && r <= 'f') || ('A' <= r && r <= 'F')
}

// Tokenize scans the entire input and returns the token stream including the
// trailing EOF token. Parse does not use it: the parser reads the lexer
// on demand, without holding every token.
func Tokenize(file, src string) ([]Token, error) {
	lx := NewLexer(file, src)
	var toks []Token
	for {
		t := lx.Next()
		toks = append(toks, t)
		if t.Kind == EOF {
			break
		}
	}
	if err := lx.Errors().Err(); err != nil {
		return toks, err
	}
	return toks, nil
}

// ParseInt parses the literal text of an INT token.
func ParseInt(lit string) (int, error) {
	var v int
	if len(lit) > 2 && (lit[1] == 'x' || lit[1] == 'X') {
		for _, c := range lit[2:] {
			v *= 16
			switch {
			case '0' <= c && c <= '9':
				v += int(c - '0')
			case 'a' <= c && c <= 'f':
				v += int(c-'a') + 10
			case 'A' <= c && c <= 'F':
				v += int(c-'A') + 10
			default:
				return 0, fmt.Errorf("invalid hex literal %q", lit)
			}
		}
		return v, nil
	}
	for _, c := range lit {
		if c < '0' || c > '9' {
			return 0, fmt.Errorf("invalid integer literal %q", lit)
		}
		v = v*10 + int(c-'0')
	}
	return v, nil
}

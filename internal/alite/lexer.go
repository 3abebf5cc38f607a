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

func (lx *Lexer) peek() rune {
	if lx.off >= len(lx.src) {
		return -1
	}
	r, _ := utf8.DecodeRuneInString(lx.src[lx.off:])
	return r
}

func (lx *Lexer) advance() rune {
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

func isIdentStart(r rune) bool {
	return r == '_' || r == '$' || unicode.IsLetter(r)
}

func isIdentPart(r rune) bool {
	return isIdentStart(r) || unicode.IsDigit(r)
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

// Next returns the next token. After EOF it keeps returning EOF.
func (lx *Lexer) Next() Token {
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
	case unicode.IsDigit(r):
		start := lx.off
		for unicode.IsDigit(lx.peek()) {
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
		return lx.Next()
	}
	lx.errs.Add(pos, "unexpected character %q", r)
	return lx.Next()
}

func isHexDigit(r rune) bool {
	return unicode.IsDigit(r) || ('a' <= r && r <= 'f') || ('A' <= r && r <= 'F')
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

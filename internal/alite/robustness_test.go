package alite

import (
	"errors"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

// TestParserNeverPanics: the parser must return errors, not panic, on
// arbitrarily mutated input. Each trial takes a valid program and applies
// random byte mutations (flips, deletions, truncations, duplications).
func TestParserNeverPanics(t *testing.T) {
	base := []byte(figure1)
	prop := func(seed int64) (ok bool) {
		defer func() {
			if r := recover(); r != nil {
				ok = false
				t.Logf("seed %d: parser panicked: %v", seed, r)
			}
		}()
		r := rand.New(rand.NewSource(seed))
		src := append([]byte{}, base...)
		for i, n := 0, 1+r.Intn(20); i < n; i++ {
			if len(src) == 0 {
				break
			}
			pos := r.Intn(len(src))
			switch r.Intn(4) {
			case 0: // flip
				src[pos] = byte(r.Intn(128))
			case 1: // delete
				src = append(src[:pos], src[pos+1:]...)
			case 2: // truncate
				src = src[:pos]
			case 3: // duplicate a chunk
				end := pos + r.Intn(10)
				if end > len(src) {
					end = len(src)
				}
				src = append(src[:end:end], src[pos:]...)
			}
		}
		_, _ = Parse("mutated", string(src))
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestLexerNeverPanics: arbitrary byte strings tokenize without panicking
// and every token stream ends in EOF.
func TestLexerNeverPanics(t *testing.T) {
	prop := func(src []byte) (ok bool) {
		defer func() {
			if r := recover(); r != nil {
				ok = false
				t.Logf("lexer panicked on %q: %v", src, r)
			}
		}()
		toks, _ := Tokenize("fuzz", string(src))
		return len(toks) > 0 && toks[len(toks)-1].Kind == EOF
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestPrintParseFixpointOnFigure1 verifies Print∘Parse is idempotent on a
// substantial program.
func TestPrintParseFixpointOnFigure1(t *testing.T) {
	f1 := MustParse("a", figure1)
	p1 := Print(f1)
	f2 := MustParse("b", p1)
	p2 := Print(f2)
	if p1 != p2 {
		t.Error("Print∘Parse is not a fixed point")
	}
}

// nestedSource builds a file whose deepest point nests exactly n levels,
// through repetitions of one construct the parser counts toward MaxNesting.
// The method body is one level, each repetition adds cost levels (extra
// more once), and parentheses around the innermost expression make up the
// remainder. Expression shapes nest inside the assignment's right-hand
// side; statement shapes nest around the assignment.
func nestedSource(shape string, n int) string {
	type form struct {
		cost, extra int
		open, close string
		stmt        bool
	}
	forms := map[string]form{
		"paren":     {cost: 1, open: "(", close: ")"},
		"cast":      {cost: 1, open: "(View) "},
		"new-args":  {cost: 1, open: "new A(", close: ")"},
		"call-args": {cost: 2, open: "this.f(", close: ")"},
		"selector":  {cost: 1, close: ".f"},
		"if":        {cost: 2, open: "if (*) { ", close: " }", stmt: true},
		"while":     {cost: 2, open: "while (*) { ", close: " }", stmt: true},
		"else-if":   {cost: 1, extra: 2, open: "if (*) { } else ", stmt: true},
	}
	f := forms[shape]
	levels := n - 1 - f.extra
	k, pad := levels/f.cost, levels%f.cost
	wrap := func(inner string) string {
		return strings.Repeat(f.open, k) + inner + strings.Repeat(f.close, k)
	}
	expr := "y"
	if !f.stmt {
		expr = wrap(expr)
	}
	stmt := "x = " + strings.Repeat("(", pad) + expr + strings.Repeat(")", pad) + ";"
	if shape == "else-if" {
		stmt = "if (*) { " + stmt + " }"
	}
	if f.stmt {
		stmt = wrap(stmt)
	}
	return "class A {\n\tvoid m() {\n\t\t" + stmt + "\n\t}\n}\n"
}

// TestNestingLimit: every construct that nests counts one level per
// nesting, so input exactly MaxNesting deep parses and one level more is a
// positioned error — before any recursion deep enough to exhaust the stack.
func TestNestingLimit(t *testing.T) {
	for _, shape := range []string{"paren", "cast", "new-args", "call-args", "selector", "if", "while", "else-if"} {
		t.Run(shape, func(t *testing.T) {
			if _, err := Parse("at.alite", nestedSource(shape, MaxNesting)); err != nil {
				t.Fatalf("%d levels: %v", MaxNesting, err)
			}
			_, err := Parse("over.alite", nestedSource(shape, MaxNesting+1))
			var errs ErrorList
			if !errors.As(err, &errs) || len(errs) != 1 {
				t.Fatalf("%d levels: want one nesting error, got %v", MaxNesting+1, err)
			}
			if !errs[0].Pos.IsValid() || !strings.Contains(errs[0].Msg, "nesting deeper than 1000 levels") {
				t.Errorf("%d levels: error %q, want a positioned nesting error", MaxNesting+1, errs[0])
			}
		})
	}
}

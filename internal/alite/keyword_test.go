package alite_test

import (
	"testing"

	"gator/internal/alite"
	"gator/internal/corpus"
)

// TestKeywordSwitch holds the lexer's keyword switch to the keyword table
// it replaced: on every keyword, on every keyword with one byte added,
// dropped or changed, and on every identifier in the corpus sources.
func TestKeywordSwitch(t *testing.T) {
	checked := 0
	check := func(lit string) {
		checked++
		want, ok := alite.Keywords[lit]
		if !ok {
			want = alite.IDENT
		}
		if got := alite.Keyword(lit); got != want {
			t.Errorf("keyword(%q) = %v, want %v", lit, got, want)
		}
	}
	for kw := range alite.Keywords {
		check(kw)
		for i := 0; i <= len(kw); i++ {
			if i < len(kw) {
				check(kw[:i] + kw[i+1:])
			}
			for c := 0; c < 256; c++ {
				b := string([]byte{byte(c)})
				check(kw[:i] + b + kw[i:])
				if i < len(kw) {
					check(kw[:i] + b + kw[i+1:])
				}
			}
		}
	}
	sources := []string{}
	for _, app := range corpus.GenerateAll() {
		sources = append(sources, app.Source)
	}
	chain, _ := corpus.ModularChainApp(40, 12)
	for _, src := range chain {
		sources = append(sources, src)
	}
	for _, f := range corpus.Figure1Files() {
		sources = append(sources, alite.Print(f))
	}
	idents := map[string]bool{}
	for _, src := range sources {
		for i := 0; i < len(src); {
			j := i
			for j < len(src) && isIdentByte(src[j]) {
				j++
			}
			if j > i {
				idents[src[i:j]] = true
				i = j
			} else {
				i++
			}
		}
	}
	for id := range idents {
		check(id)
	}
	t.Logf("%d literals checked, %d distinct corpus identifiers", checked, len(idents))
}

func isIdentByte(c byte) bool {
	return c == '_' || c == '$' || '0' <= c && c <= '9' || 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z'
}

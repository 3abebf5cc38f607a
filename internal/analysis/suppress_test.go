package analysis

import (
	"reflect"
	"strings"
	"testing"

	"gator/internal/alite"
	"gator/internal/checks"
)

// splitSuppressions is ParseSuppressions as it was before it scanned the
// whole source: split into lines at '\n', first directive per line, with
// no notion of '\r'. On LF sources the two must agree.
func splitSuppressions(sources map[string]string) Suppressions {
	var out Suppressions
	for file, src := range sources {
		for i, line := range strings.Split(src, "\n") {
			at := strings.Index(line, disableMarker)
			if at < 0 {
				continue
			}
			rest := line[at+len(disableMarker):]
			if rest != "" && rest[0] != ' ' && rest[0] != '\t' {
				continue
			}
			var ids []string
			for _, name := range strings.FieldsFunc(rest, func(r rune) bool {
				return r == ',' || r == ' ' || r == '\t'
			}) {
				ids = append(ids, name)
			}
			if out == nil {
				out = Suppressions{}
			}
			if out[file] == nil {
				out[file] = map[int][]string{}
			}
			out[file][i+1] = ids
		}
	}
	return out
}

// suppressionSources covers a directive on the first line, a trailing
// id list, a near-miss word, a bare directive, two directives on one line,
// and a directive on a last line with no trailing newline.
var suppressionSources = map[string]string{
	"a.alite": "// gator:disable unused-view-id\n" +
		"class A extends Activity {\n" +
		"\tvoid onCreate() { } // gator:disable null-view-deref, listener-reset\n" +
		"\t// gator:disabled not-a-directive\n" +
		"\t// gator:disable\n" +
		"\tint x; // gator:disable a // gator:disable b\n" +
		"}\n" +
		"// gator:disable dangling-findview",
	"b.alite": "class B { }\n// gator:disable",
	"c.alite": "class C { }\n",
}

// TestSuppressionsLineEndings: a source parses to the same directives with
// LF and with CRLF line endings, for id lists and for bare directives, on
// the first line and on a last line with no newline; and on LF sources the
// whole-source scan agrees with the old line-split parse.
func TestSuppressionsLineEndings(t *testing.T) {
	lf := ParseSuppressions(suppressionSources)
	want := Suppressions{
		"a.alite": {
			1: {"unused-view-id"},
			3: {"null-view-deref", "listener-reset"},
			5: nil,
			6: {"a", "//", "gator:disable", "b"},
			8: {"dangling-findview"},
		},
		"b.alite": {2: nil},
	}
	if !reflect.DeepEqual(lf, want) {
		t.Fatalf("LF directives = %v, want %v", lf, want)
	}
	if old := splitSuppressions(suppressionSources); !reflect.DeepEqual(lf, old) {
		t.Fatalf("LF directives = %v, the line-split parse found %v", lf, old)
	}
	crlfSources := map[string]string{}
	for name, src := range suppressionSources {
		crlfSources[name] = strings.ReplaceAll(src, "\n", "\r\n")
	}
	crlf := ParseSuppressions(crlfSources)
	if !reflect.DeepEqual(crlf, lf) {
		t.Fatalf("CRLF directives = %v, want the LF ones %v", crlf, lf)
	}
	for _, c := range []struct {
		check string
		line  int32
		want  bool
	}{
		{"unused-view-id", 1, true},
		{"unused-view-id", 2, true},
		{"listener-reset", 3, true},
		{"duplicate-id", 3, false},
		{"duplicate-id", 5, true},
		{"duplicate-id", 6, true},
		{"dangling-findview", 8, true},
	} {
		f := checks.Finding{Check: c.check, Pos: alite.Pos{File: "a.alite", Line: c.line, Col: 1}}
		if got := crlf.Matches(f); got != c.want {
			t.Errorf("CRLF source: %s on line %d suppressed = %v, want %v", c.check, c.line, got, c.want)
		}
	}
}

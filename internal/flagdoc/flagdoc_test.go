package flagdoc

import (
	"slices"
	"testing"
)

func TestTableAndUsage(t *testing.T) {
	readme := []byte("# tool\n\n## Flags and options\n\n### `tool`\n\n" +
		"| Flag | Justified by |\n|---|---|\n| `-b` | a record row |\n| `-a` | a deployment setting |\n\n" +
		"### `other`\n\n| Field | Justified by |\n|---|---|\n| `C` | a baseline |\n\n" +
		"## Later\n\n### `tool`\n\n| `-z` | outside the section |\n")
	got, err := Table(readme, "tool")
	if err != nil || !slices.Equal(got, []string{"a", "b"}) {
		t.Errorf("Table(tool) = %v, %v; want [a b]", got, err)
	}
	if got, err := Table(readme, "other"); err != nil || !slices.Equal(got, []string{"C"}) {
		t.Errorf("Table(other) = %v, %v; want [C]", got, err)
	}
	if _, err := Table(readme, "missing"); err == nil {
		t.Error("Table(missing) found a table")
	}

	usage := []byte("Usage of tool:\n  -b\tbool flag\n  -a string\n    \tstring flag\n    \t  -not a flag\n")
	if got := Usage(usage); !slices.Equal(got, []string{"a", "b"}) {
		t.Errorf("Usage = %v, want [a b]", got)
	}
}

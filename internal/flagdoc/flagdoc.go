// Package flagdoc reads the tables of README.md's "Flags and options"
// section, the flag list a command prints for -h and the fields of an
// option struct, so each command's tests (and the option types' tests)
// can hold the code to its table: a flag or field that is added, renamed
// or deleted without its README row fails a test.
package flagdoc

import (
	"bufio"
	"bytes"
	"fmt"
	"reflect"
	"sort"
	"strings"
)

// section is the README heading the tables live under.
const section = "## Flags and options"

// Table returns the first-column entries of the table under the heading
// "### `name`" in README's "Flags and options" section, sorted, without
// backquotes or a leading "-".
func Table(readme []byte, name string) ([]string, error) {
	heading := "### `" + name + "`"
	var entries []string
	inSection, inTable := false, false
	sc := bufio.NewScanner(bytes.NewReader(readme))
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "## "):
			inSection = line == section
			inTable = false
		case !inSection:
		case strings.HasPrefix(line, "### "):
			inTable = line == heading
		case inTable && strings.HasPrefix(line, "|"):
			cell := strings.TrimSpace(strings.SplitN(strings.Trim(line, "|"), "|", 2)[0])
			if cell == "" || strings.HasPrefix(cell, "---") || !strings.HasPrefix(cell, "`") {
				continue // header or separator row
			}
			entries = append(entries, strings.TrimPrefix(strings.Trim(cell, "`"), "-"))
		}
	}
	if len(entries) == 0 {
		return nil, fmt.Errorf("README has no table under %q in %q", heading, section)
	}
	sort.Strings(entries)
	return entries, nil
}

// Usage returns the flag names in a flag.FlagSet's -h output, sorted.
func Usage(out []byte) []string {
	var names []string
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		// PrintDefaults puts each flag on a line of its own: two spaces,
		// the dash, the name, then an optional value placeholder.
		if line, ok := strings.CutPrefix(sc.Text(), "  -"); ok {
			names = append(names, strings.Fields(line)[0])
		}
	}
	sort.Strings(names)
	return names
}

// Fields returns the field names of struct type t, sorted.
func Fields(t reflect.Type) []string {
	names := make([]string, t.NumField())
	for i := range names {
		names[i] = t.Field(i).Name
	}
	sort.Strings(names)
	return names
}

package analysis

import (
	"strings"

	"gator/internal/checks"
)

// Suppressions records `// gator:disable` comments per file and line. A
// directive suppresses matching findings reported on its own line and on
// the line directly below, so both trailing and leading comment placement
// work:
//
//	v.setId(R.id.x); // gator:disable null-view-deref
//
//	// gator:disable listener-reset, null-view-deref
//	b.setOnClickListener(h);
//
// A bare `// gator:disable` (no names) suppresses every check on those
// lines. Findings without a source position (structural findings) cannot be
// suppressed inline.
type Suppressions map[string]map[int][]string

const disableMarker = "// gator:disable"

// ParseSuppressions scans source texts for disable directives. The map key
// is the file name as it appears in finding positions. Lines end at '\n'; a
// '\r' before it (CRLF sources) separates names like a space. Only the first
// directive on a line counts.
func ParseSuppressions(sources map[string]string) Suppressions {
	var out Suppressions
	for file, src := range sources {
		// line is the line number of src[counted]; off is where the search
		// for the next directive resumes, always at the start of a line.
		line, counted := 1, 0
		for off := 0; off < len(src); {
			at := strings.Index(src[off:], disableMarker)
			if at < 0 {
				break
			}
			at += off
			line += strings.Count(src[counted:at], "\n")
			counted = at
			end := len(src)
			if i := strings.IndexByte(src[at:], '\n'); i >= 0 {
				end = at + i
			}
			off = end + 1
			rest := src[at+len(disableMarker) : end]
			// Require a clean word boundary so e.g. "gator:disabled" does
			// not count.
			if rest != "" && rest[0] != ' ' && rest[0] != '\t' && rest[0] != '\r' {
				continue
			}
			var ids []string
			for _, name := range strings.FieldsFunc(rest, func(r rune) bool {
				return r == ',' || r == ' ' || r == '\t' || r == '\r'
			}) {
				ids = append(ids, name)
			}
			if out == nil {
				out = Suppressions{}
			}
			if out[file] == nil {
				out[file] = map[int][]string{}
			}
			out[file][line] = ids // ids == nil means "all checks"
		}
	}
	return out
}

// Matches reports whether a finding is covered by a directive on its line
// or the line above.
func (s Suppressions) Matches(f checks.Finding) bool {
	if s == nil || !f.Pos.IsValid() {
		return false
	}
	lines := s[f.Pos.File]
	if lines == nil {
		return false
	}
	for _, line := range []int{int(f.Pos.Line), int(f.Pos.Line) - 1} {
		ids, ok := lines[line]
		if !ok {
			continue
		}
		if len(ids) == 0 {
			return true
		}
		for _, id := range ids {
			if id == f.Check {
				return true
			}
		}
	}
	return false
}

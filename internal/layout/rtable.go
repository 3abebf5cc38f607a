package layout

import (
	"fmt"
	"sort"
)

// Resource id spaces, mirroring the aapt-generated constants the paper shows
// (e.g. R.layout.act_console = 0x7f030000).
const (
	LayoutIDBase = 0x7f030000
	ViewIDBase   = 0x7f080000
	StringIDBase = 0x7f0a0000
)

// RTable maps layout and view id names to generated integer constants, the
// moral equivalent of the generated R class. Constants are dense from their
// base, so each id→name side is a slice indexed by id minus its base. An
// RTable is only used by pointer, so no copy aliases its slices.
type RTable struct {
	layoutByName map[string]int
	layoutByID   []string // indexed by id - LayoutIDBase
	viewByName   map[string]int
	viewByID     []string // indexed by id - ViewIDBase
	stringByName map[string]int
	stringByID   []string // indexed by id - StringIDBase
}

// NewRTable builds the R table for a set of linked layouts: one R.layout
// constant per layout, one R.id constant per distinct view id name.
// Additional view id names (used only programmatically via setId) can be
// registered with AddViewID.
func NewRTable(layouts map[string]*Layout) *RTable {
	names := make([]string, 0, len(layouts))
	for name := range layouts {
		names = append(names, name)
	}
	sort.Strings(names)
	t := &RTable{
		layoutByName: make(map[string]int, len(names)),
		layoutByID:   names,
		viewByName:   map[string]int{},
		stringByName: map[string]int{},
	}
	var ids []string
	for i, name := range names {
		t.layoutByName[name] = LayoutIDBase + i
		ids = layouts[name].appendIDNames(ids[:0])
		for _, vid := range ids {
			t.AddViewID(vid)
		}
	}
	return t
}

// AddViewID registers a view id name, returning its constant. Idempotent.
func (t *RTable) AddViewID(name string) int {
	if id, ok := t.viewByName[name]; ok {
		return id
	}
	id := ViewIDBase + len(t.viewByID)
	t.viewByName[name] = id
	t.viewByID = append(t.viewByID, name)
	return id
}

// AddStringID registers a string resource name, returning its constant.
// Idempotent. String resources have no XML source in the ALite abstraction,
// so like programmatic view ids they are registered on first use.
func (t *RTable) AddStringID(name string) int {
	if id, ok := t.stringByName[name]; ok {
		return id
	}
	id := StringIDBase + len(t.stringByID)
	t.stringByName[name] = id
	t.stringByID = append(t.stringByID, name)
	return id
}

// StringIDName returns the string resource name for an R.string constant.
func (t *RTable) StringIDName(id int) (string, bool) {
	return nameOf(t.stringByID, StringIDBase, id)
}

// LayoutID returns the R.layout constant for a layout name.
func (t *RTable) LayoutID(name string) (int, bool) {
	id, ok := t.layoutByName[name]
	return id, ok
}

// ViewID returns the R.id constant for a view id name.
func (t *RTable) ViewID(name string) (int, bool) {
	id, ok := t.viewByName[name]
	return id, ok
}

// LayoutName returns the layout name for an R.layout constant.
func (t *RTable) LayoutName(id int) (string, bool) {
	return nameOf(t.layoutByID, LayoutIDBase, id)
}

// ViewIDName returns the view id name for an R.id constant.
func (t *RTable) ViewIDName(id int) (string, bool) {
	return nameOf(t.viewByID, ViewIDBase, id)
}

// NumLayouts returns the number of layout constants.
func (t *RTable) NumLayouts() int { return len(t.layoutByID) }

// NumViewIDs returns the number of view id constants.
func (t *RTable) NumViewIDs() int { return len(t.viewByID) }

// LayoutNames returns the sorted layout names.
func (t *RTable) LayoutNames() []string {
	return sortedCopy(t.layoutByID)
}

// ViewIDNames returns the sorted view id names.
func (t *RTable) ViewIDNames() []string {
	return sortedCopy(t.viewByID)
}

// DescribeID renders a resource constant for diagnostics: the symbolic name
// when known, hex otherwise.
func (t *RTable) DescribeID(id int) string {
	if name, ok := t.LayoutName(id); ok {
		return "R.layout." + name
	}
	if name, ok := t.ViewIDName(id); ok {
		return "R.id." + name
	}
	if name, ok := t.StringIDName(id); ok {
		return "R.string." + name
	}
	return fmt.Sprintf("0x%x", id)
}

// nameOf returns the name of constant id in byID, a slice indexed from base.
func nameOf(byID []string, base, id int) (string, bool) {
	if i := id - base; i >= 0 && i < len(byID) {
		return byID[i], true
	}
	return "", false
}

// sortedCopy returns a sorted copy of names, never nil.
func sortedCopy(names []string) []string {
	out := append(make([]string, 0, len(names)), names...)
	sort.Strings(out)
	return out
}

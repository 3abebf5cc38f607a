package dot

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"gator/internal/core"
	"gator/internal/corpus"
	"gator/internal/ir"
)

func figure1Result(t *testing.T) *core.Result {
	t.Helper()
	p, err := ir.Build(corpus.Figure1Files(), corpus.Figure1Layouts())
	if err != nil {
		t.Fatal(err)
	}
	return core.Analyze(p, core.Options{})
}

func TestExportStructure(t *testing.T) {
	res := figure1Result(t)
	out := Export(res)
	if !strings.HasPrefix(out, "digraph gator {") || !strings.HasSuffix(out, "}\n") {
		t.Fatalf("not a digraph:\n%.80s...", out)
	}
	for _, want := range []string{
		"shape=box",        // op/alloc nodes
		"shape=hexagon",    // activity node
		"shape=diamond",    // id nodes
		`label="child"`,    // parent-child relation
		`label="listener"`, // listener relation
		`label="root"`,     // activity root
		`label="id"`,       // view id association
		"Activity[ConsoleActivity]",
		"SetListener",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("dot output missing %q", want)
		}
	}
	// Every edge references declared nodes.
	declared := map[string]bool{}
	for _, line := range strings.Split(out, "\n") {
		line = strings.TrimSpace(line)
		if strings.HasPrefix(line, "n") && strings.Contains(line, "[label=") && !strings.Contains(line, "->") {
			declared[line[:strings.Index(line, " ")]] = true
		}
	}
	for _, line := range strings.Split(out, "\n") {
		line = strings.TrimSpace(line)
		if i := strings.Index(line, " -> "); i > 0 {
			src := line[:i]
			dst := line[i+4:]
			if j := strings.IndexAny(dst, " ;["); j > 0 {
				dst = dst[:j]
			}
			if !declared[src] || !declared[dst] {
				t.Errorf("edge references undeclared node: %s", line)
			}
		}
	}
}

// TestExportNumbersByName: nodes are declared n0, n1, ... in the order of
// their labels, and edges follow in the order of their endpoints' numbers,
// so nothing in the output depends on graph ids.
func TestExportNumbersByName(t *testing.T) {
	out := Export(figure1Result(t))
	var labels []string
	var edges [][2]int
	for _, line := range strings.Split(out, "\n") {
		var a, b int
		if n, _ := fmt.Sscanf(line, "\tn%d -> n%d", &a, &b); n == 2 {
			edges = append(edges, [2]int{a, b})
			continue
		}
		var label string
		if n, _ := fmt.Sscanf(line, "\tn%d [label=%q", &a, &label); n == 2 {
			if a != len(labels) {
				t.Fatalf("node n%d declared at position %d", a, len(labels))
			}
			labels = append(labels, label)
		}
	}
	if len(labels) == 0 || len(edges) == 0 {
		t.Fatalf("no nodes or edges:\n%s", out)
	}
	if !slices.IsSorted(labels) {
		t.Errorf("node labels are not sorted: %q", labels)
	}
	if !slices.IsSortedFunc(edges, func(x, y [2]int) int {
		if x[0] != y[0] {
			return x[0] - y[0]
		}
		return x[1] - y[1]
	}) {
		t.Errorf("edges are not in endpoint order: %v", edges)
	}
}

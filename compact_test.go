package gator_test

import (
	"bytes"
	"regexp"
	"slices"
	"strings"
	"testing"

	"gator"
	"gator/internal/corpus"
	"gator/internal/report"
)

// deterministicKinds lists the report kinds that render the same bytes on
// every run of the same input: the ones a result cache may replay.
func deterministicKinds(t *testing.T) []string {
	t.Helper()
	var kinds []string
	for _, k := range report.Kinds() {
		if (report.Request{Report: k}).Replayable() {
			kinds = append(kinds, k)
		}
	}
	if len(kinds) != 13 {
		t.Fatalf("%d deterministic report kinds %v, want 13", len(kinds), kinds)
	}
	return kinds
}

// render returns one report of res with its exit code and diagnostics. The
// dot report names nodes by graph id and labels views and allocations by
// operation id and allocation ordinal, which only a cold run fixes, so its
// lines are compared with every node named by its label, those numbers
// dropped, and the lines sorted.
func render(res *gator.Result, kind string) string {
	var out, errs bytes.Buffer
	code := report.Render(&out, &errs, "app", res, report.Request{Report: kind})
	text := out.String()
	if kind == "dot" {
		text = canonicalDot(text)
	}
	return string(rune('0'+code)) + text + errs.String()
}

var (
	dotDecl    = regexp.MustCompile(`^\t(n\d+) \[label="(.*?)" shape=`)
	dotEdge    = regexp.MustCompile(`^\t(n\d+) -> (n\d+)(.*)$`)
	dotOrdinal = regexp.MustCompile(`#(op)?\d+`)
)

func canonicalDot(dot string) string {
	lines := strings.Split(dot, "\n")
	labels := map[string]string{}
	for _, l := range lines {
		if m := dotDecl.FindStringSubmatch(l); m != nil {
			labels[m[1]] = dotOrdinal.ReplaceAllString(m[2], "#$1")
		}
	}
	for i, l := range lines {
		if m := dotEdge.FindStringSubmatch(l); m != nil {
			lines[i] = labels[m[1]] + " -> " + labels[m[2]] + m[3]
		} else if m := dotDecl.FindStringSubmatch(l); m != nil {
			lines[i] = labels[m[1]] + l[len(m[0]):]
		}
	}
	slices.Sort(lines)
	return strings.Join(lines, "\n")
}

// TestCompactionChainMatchesScratch chains alternating body edits through a
// small app, where an edit retires a fifth of the graph, so warm re-solves
// compact every few edits, and compares every edit with a from-scratch
// analysis of the edited input: the snapshot of the incremental tests and
// every deterministic report kind, byte for byte, so the edits just before
// and just after each compaction are covered.
func TestCompactionChainMatchesScratch(t *testing.T) {
	kinds := deterministicKinds(t)
	for _, opts := range []gator.Options{{}, {FilterCasts: true}} {
		sources, layouts := corpus.ModularApp(3)
		edits := corpus.ModularEdits(sources)
		c := gator.NewCache()
		prev, err := gator.AnalyzeIncremental(nil, sources, layouts, opts, c)
		if err != nil {
			t.Fatal(err)
		}
		compactions := 0
		for i := 0; compactions < 3; i++ {
			if i == 40 {
				t.Fatalf("FilterCasts=%v: %d compactions in %d edits, want 3", opts.FilterCasts, compactions, i)
			}
			sources["act1.alite"] = edits[i%2]
			res, err := gator.AnalyzeIncremental(prev, sources, layouts, opts, c)
			if err != nil {
				t.Fatal(err)
			}
			st := res.Incremental()
			if st.Mode != "warm" {
				t.Fatalf("FilterCasts=%v edit %d: mode %q (%s), want warm", opts.FilterCasts, i, st.Mode, st.Reason)
			}
			app, err := gator.Load(sources, layouts)
			if err != nil {
				t.Fatal(err)
			}
			scratch := app.Analyze(opts)
			if gator.Snapshot(t, res) != gator.Snapshot(t, scratch) {
				t.Fatalf("FilterCasts=%v edit %d (compacted %v): warm solution differs from scratch", opts.FilterCasts, i, st.Compacted)
			}
			for _, k := range kinds {
				if got, want := render(res, k), render(scratch, k); got != want {
					t.Fatalf("FilterCasts=%v edit %d (compacted %v): report %s differs from scratch\nwarm:\n%s\nscratch:\n%s",
						opts.FilterCasts, i, st.Compacted, k, got, want)
				}
			}
			if st.Compacted {
				// Both versions of the edited file build the same nodes, so
				// a compacted session is back to a cold run's id spaces.
				compactions++
				slots, vars := res.IDSpace()
				coldSlots, coldVars := scratch.IDSpace()
				if slots != coldSlots || vars != coldVars {
					t.Fatalf("FilterCasts=%v edit %d: compacted to %d node slots and %d var ids, scratch has %d and %d",
						opts.FilterCasts, i, slots, vars, coldSlots, coldVars)
				}
			}
			prev = res
		}
	}
}

// TestLongSessionStaysBounded chains the serve workload's edit, the two
// corpus.ModularEdits versions of act1.alite in turn, through 2,000 warm
// re-solves of ModularApp(30) (200 under -short). After every edit the node
// slots and variable ids stay within twice a cold analysis's, and every
// edit after the first retains and retracts exactly what the first chained
// edits did before compaction existed: compacting changes no derivation.
func TestLongSessionStaysBounded(t *testing.T) {
	edits := 2000
	if testing.Short() {
		edits = 200
	}
	sources, layouts := corpus.ModularApp(30)
	versions := corpus.ModularEdits(sources)
	c := gator.NewCache()
	prev, err := gator.AnalyzeIncremental(nil, sources, layouts, gator.Options{}, c)
	if err != nil {
		t.Fatal(err)
	}
	coldSlots, coldVars := prev.IDSpace()
	compactions := 0
	for i := 1; i <= edits; i++ {
		sources["act1.alite"] = versions[(i-1)%2]
		res, err := gator.AnalyzeIncremental(prev, sources, layouts, gator.Options{}, c)
		if err != nil {
			t.Fatal(err)
		}
		st := res.Incremental()
		if st.Mode != "warm" {
			t.Fatalf("edit %d: mode %q (%s), want warm", i, st.Mode, st.Reason)
		}
		if slots, vars := res.IDSpace(); slots > 2*coldSlots || vars > 2*coldVars {
			t.Fatalf("edit %d: %d node slots and %d var ids, want at most %d and %d (twice cold)",
				i, slots, vars, 2*coldSlots, 2*coldVars)
		}
		if i > 1 && (st.Retained != 3137 || st.Retracted != 135) {
			t.Fatalf("edit %d: retained %d, retracted %d, want 3137 and 135", i, st.Retained, st.Retracted)
		}
		if st.Compacted {
			compactions++
		}
		prev = res
	}
	if compactions == 0 {
		t.Fatalf("%d edits never compacted", edits)
	}
}

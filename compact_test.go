package gator_test

import (
	"bytes"
	"testing"

	"gator"
	"gator/internal/corpus"
	"gator/internal/report"
)

// render returns one report of res with its exit code and diagnostics.
func render(res *gator.Result, kind string) string {
	var out, errs bytes.Buffer
	code := report.Render(&out, &errs, "app", res, report.Request{Report: kind})
	return string(rune('0'+code)) + out.String() + errs.String()
}

// TestWarmReportsMatchCold: a body-only edit of the file that allocates a
// detached view with a click listener takes the warm path, and every report
// kind of the warm result is byte-identical to a cold run of the edited
// input. The re-lowered body builds new allocation and operation nodes
// with fresh ids, so a report that named a value by id or by creation
// order, or that printed a time, would differ here.
func TestWarmReportsMatchCold(t *testing.T) {
	sources := map[string]string{"app.alite": `class H implements OnClickListener {
	void onClick(View v) { }
}
class Main extends Activity {
	void onCreate() {
		this.setContentView(R.layout.main);
		Button detached = new Button();
		H h = new H();
		detached.setOnClickListener(h);
	}
}
`}
	layouts := map[string]string{"main": `<LinearLayout android:id="@+id/root"/>`}
	prev, err := gator.AnalyzeIncremental(nil, sources, layouts, gator.Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	sources["app.alite"] += "// edited\n"
	warm, err := gator.AnalyzeIncremental(prev, sources, layouts, gator.Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st := warm.Incremental(); st.Mode != "warm" {
		t.Fatalf("mode %q (%s), want warm", st.Mode, st.Reason)
	}
	app, err := gator.Load(sources, layouts)
	if err != nil {
		t.Fatal(err)
	}
	cold := app.Analyze(gator.Options{})
	for _, k := range report.Kinds() {
		if got, want := render(warm, k), render(cold, k); got != want {
			t.Errorf("report %s: warm differs from cold\nwarm:\n%s\ncold:\n%s", k, got, want)
		}
	}
}

// TestCompactionChainMatchesScratch chains alternating body edits through a
// small app, where an edit retires a fifth of the graph, so warm re-solves
// compact every few edits, and compares every edit with a from-scratch
// analysis of the edited input: the snapshot of the incremental tests and
// every report kind, byte for byte, so the edits just before and just after
// each compaction are covered.
func TestCompactionChainMatchesScratch(t *testing.T) {
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
			for _, k := range report.Kinds() {
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

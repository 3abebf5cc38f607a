package gator

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"gator/internal/corpus"
)

// snapshot renders every cross-run-stable output of a result into one
// string, for byte-identity comparison between incremental and from-scratch
// analyses. Timing fields (summary, Model.Elapsed) and node-numbered outputs
// (Dot) are excluded by design; see DESIGN.md, "Incremental solving".
func snapshot(t *testing.T, res *Result) string {
	t.Helper()
	var b strings.Builder
	for _, v := range res.Views() {
		fmt.Fprintf(&b, "view %s %s id=%s\n", v.Class, v.Origin, v.ID)
	}
	for _, e := range res.Hierarchy() {
		fmt.Fprintf(&b, "hier %s(%s) => %s(%s)\n", e.Parent.Class, e.Parent.Origin, e.Child.Class, e.Child.Origin)
	}
	for _, a := range res.Activities() {
		fmt.Fprintf(&b, "act %s:", a.Activity)
		for _, r := range a.Roots {
			fmt.Fprintf(&b, " %s(%s)", r.Class, r.Origin)
		}
		b.WriteString("\n")
	}
	for _, tup := range res.EventTuples() {
		fmt.Fprintf(&b, "tuple %s %s(%s) %s %s\n", tup.Activity, tup.View.Class, tup.View.Origin, tup.Event, tup.Handler)
	}
	for _, m := range res.MenuEntries() {
		fmt.Fprintf(&b, "menu %s %s %s\n", m.Activity, m.ItemID, m.Handler)
	}
	for _, tr := range res.Transitions() {
		fmt.Fprintf(&b, "transition %s -> %s via %s\n", tr.Source, tr.Target, tr.Via)
	}
	cr, err := res.CheckReport()
	if err != nil {
		t.Fatalf("CheckReport: %v", err)
	}
	b.WriteString(cr.Text())
	sarif, err := cr.SARIF()
	if err != nil {
		t.Fatalf("SARIF: %v", err)
	}
	b.Write(sarif)
	return b.String()
}

// edit mutates one application input in place.
type edit struct {
	name     string
	wantMode string // expected IncrementalStats.Mode after the edit
	apply    func(sources, layouts map[string]string)
}

// editCorpus is the differential edit corpus: every class of change the
// incremental contract distinguishes. Body-confined edits must re-solve
// warm; everything else must fall back to a full rebuild — and in both
// cases the solution must be byte-identical to analyzing the edited
// input from scratch.
func editCorpus() []edit {
	return []edit{
		{"body-stmt-add", "warm", func(s, l map[string]string) {
			s["act2.alite"] = strings.Replace(s["act2.alite"],
				"\t\tthis.stash = back;\n",
				"\t\tthis.stash = back;\n\t\tView extra = this.findViewById(R.id.act2_txt);\n\t\tthis.stash = extra;\n", 1)
		}},
		{"body-new-code-id", "warm", func(s, l map[string]string) {
			s["act0.alite"] = strings.Replace(s["act0.alite"],
				"\t\tw.setId(R.id.act0_txt);\n",
				"\t\tw.setId(R.id.fresh_code_only_id);\n", 1)
		}},
		{"swap-listener", "warm", func(s, l map[string]string) {
			s["act1.alite"] = strings.Replace(s["act1.alite"],
				"\t\tbtn.setOnLongClickListener(ll);\n",
				"\t\tView tgt = this.findViewById(R.id.act1_root);\n\t\ttgt.setOnLongClickListener(ll);\n", 1)
		}},
		{"add-view-id", "scratch", func(s, l map[string]string) {
			l["act3"] = strings.Replace(l["act3"],
				`<TextView android:id="@+id/act3_txt"/>`,
				`<TextView android:id="@+id/act3_txt"/><TextView android:id="@+id/act3_added"/>`, 1)
		}},
		{"remove-view-id", "scratch", func(s, l map[string]string) {
			l["act0"] = strings.Replace(l["act0"],
				`<Button android:id="@+id/act0_btn"/>`, `<Button/>`, 1)
		}},
		{"rename-view-id", "scratch", func(s, l map[string]string) {
			l["act1"] = strings.Replace(l["act1"],
				`android:id="@+id/act1_txt"`, `android:id="@+id/act1_renamed"`, 1)
		}},
		{"shape-add-method", "scratch", func(s, l map[string]string) {
			s["act3.alite"] = strings.Replace(s["act3.alite"],
				"\tvoid onPanelClick(View v) {\n",
				"\tvoid helper(View v) {\n\t\tthis.stash = v;\n\t}\n\tvoid onPanelClick(View v) {\n", 1)
		}},
		{"add-file", "scratch", func(s, l map[string]string) {
			s["extra.alite"] = "class Extra implements OnClickListener {\n\tView got;\n\tvoid onClick(View v) {\n\t\tthis.got = v;\n\t}\n}\n"
		}},
	}
}

func copyInput(sources, layouts map[string]string) (map[string]string, map[string]string) {
	s := make(map[string]string, len(sources))
	for k, v := range sources {
		s[k] = v
	}
	l := make(map[string]string, len(layouts))
	for k, v := range layouts {
		l[k] = v
	}
	return s, l
}

// TestIncrementalWarmBodyEdit is the core contract on the fast path: a
// body-only edit re-solves warm, retracting and retaining facts, and the
// warm solution renders byte-identically to a from-scratch analysis of the
// edited input.
func TestIncrementalWarmBodyEdit(t *testing.T) {
	sources, layouts := corpus.ModularApp(4)
	c := NewCache()
	prev, err := AnalyzeIncremental(nil, sources, layouts, Options{}, c)
	if err != nil {
		t.Fatal(err)
	}
	if got := prev.Incremental().Mode; got != "scratch" {
		t.Fatalf("initial mode = %q, want scratch", got)
	}

	edited, editedLayouts := copyInput(sources, layouts)
	edited["act1.alite"] = strings.Replace(edited["act1.alite"],
		"\t\tthis.stash = back;\n", "\t\tthis.stash = btn;\n", 1)

	warm, err := AnalyzeIncremental(prev, edited, editedLayouts, Options{}, c)
	if err != nil {
		t.Fatal(err)
	}
	st := warm.Incremental()
	if st.Mode != "warm" {
		t.Fatalf("mode = %q (reason %q), want warm", st.Mode, st.Reason)
	}
	if st.Retained == 0 || st.Retracted == 0 {
		t.Fatalf("retained=%d retracted=%d, want both nonzero", st.Retained, st.Retracted)
	}
	if len(st.DirtyUnits) != 1 || st.DirtyUnits[0] != "act1.alite" {
		t.Fatalf("dirty units = %v", st.DirtyUnits)
	}
	if !prev.Stale() {
		t.Fatal("warm re-solve must mark the consumed result stale")
	}

	fresh, err := Load(edited, editedLayouts)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := snapshot(t, warm), snapshot(t, fresh.Analyze(Options{})); got != want {
		t.Fatalf("warm solution differs from scratch:\n--- warm ---\n%s\n--- scratch ---\n%s", got, want)
	}

	// A consumed previous result is refused, not silently misused.
	if _, err := AnalyzeIncremental(prev, edited, editedLayouts, Options{}, c); !errors.Is(err, ErrStaleResult) {
		t.Fatalf("reusing a stale result: err = %v, want ErrStaleResult", err)
	}
}

// castApp is a two-file app whose click listeners sit behind casts: in each
// activity a variable holds a Button and an ImageView, and only what passes
// the cast gets the listener, so Options.FilterCasts changes the event
// tuples.
func castApp() (sources, layouts map[string]string) {
	sources, layouts = map[string]string{}, map[string]string{}
	for _, name := range []string{"a", "b"} {
		r := strings.NewReplacer("_N", strings.ToUpper(name), "_n", name)
		sources[name+".alite"] = r.Replace(`class Act_N extends Activity implements OnClickListener {
	void onCreate() {
		this.setContentView(R.layout._n);
		View v = this.findViewById(R.id._n_btn);
		if (*) {
			v = this.findViewById(R.id._n_img);
		}
		Button c = (Button) v;
		c.setOnClickListener(this);
	}
	void onClick(View v) {
	}
}
`)
		layouts[name] = r.Replace(`<LinearLayout><Button android:id="@+id/_n_btn"/><ImageView android:id="@+id/_n_img"/></LinearLayout>`)
	}
	return sources, layouts
}

// TestIncrementalWarmCastEdit: under FilterCasts, a warm edit that
// retargets the cast in one file drops that edge's cast label and records
// the new one, while the clean file's cast edge keeps its label; the warm
// solution renders byte-identically to a scratch analysis, and the filter
// visibly matters (the unfiltered solution differs).
func TestIncrementalWarmCastEdit(t *testing.T) {
	opts := Options{FilterCasts: true}
	sources, layouts := castApp()
	c := NewCache()
	prev, err := AnalyzeIncremental(nil, sources, layouts, opts, c)
	if err != nil {
		t.Fatal(err)
	}
	edited, editedLayouts := copyInput(sources, layouts)
	edited["a.alite"] = strings.Replace(edited["a.alite"],
		"\t\tButton c = (Button) v;\n", "\t\tImageView c = (ImageView) v;\n", 1)
	if edited["a.alite"] == sources["a.alite"] {
		t.Fatal("the cast edit does not apply to a.alite")
	}
	warm, err := AnalyzeIncremental(prev, edited, editedLayouts, opts, c)
	if err != nil {
		t.Fatal(err)
	}
	if st := warm.Incremental(); st.Mode != "warm" || st.Retracted == 0 {
		t.Fatalf("mode %q (reason %q), retracted %d: want a warm edit that retracts", st.Mode, st.Reason, st.Retracted)
	}
	got, want := snapshot(t, warm), snapshot(t, mustAnalyze(t, edited, editedLayouts, opts))
	if got != want {
		t.Fatalf("warm cast edit differs from scratch:\n--- warm ---\n%s\n--- scratch ---\n%s", got, want)
	}
	for _, tuple := range []string{"tuple ActA ImageView(", "tuple ActB Button("} {
		if !strings.Contains(got, tuple) {
			t.Errorf("warm solution lacks %q:\n%s", tuple, got)
		}
	}
	for _, tuple := range []string{"tuple ActA Button(", "tuple ActB ImageView("} {
		if strings.Contains(got, tuple) {
			t.Errorf("warm solution has %q, which the cast filters out:\n%s", tuple, got)
		}
	}
	if unfiltered := snapshot(t, mustAnalyze(t, edited, editedLayouts, Options{})); unfiltered == got {
		t.Fatal("FilterCasts changes nothing on the cast app; the test would not see a lost cast label")
	}
}

// TestIncrementalUnchanged: byte-identical inputs short-circuit.
func TestIncrementalUnchanged(t *testing.T) {
	sources, layouts := corpus.ModularApp(2)
	prev, err := AnalyzeIncremental(nil, sources, layouts, Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	again, err := AnalyzeIncremental(prev, sources, layouts, Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if again != prev {
		t.Fatal("unchanged input must return the previous result")
	}
	if got := again.Incremental().Mode; got != "unchanged" {
		t.Fatalf("mode = %q, want unchanged", got)
	}
}

// TestIncrementalFallbackReasons: every non-body edit class and every
// schedule-sensitive option falls back to a full rebuild, with the reason
// reported.
func TestIncrementalFallbackReasons(t *testing.T) {
	sources, layouts := corpus.ModularApp(2)
	base, err := AnalyzeIncremental(nil, sources, layouts, Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name       string
		mutate     func(s, l map[string]string)
		wantPrefix string
	}{
		{"layout-edit", func(s, l map[string]string) {
			l["panel"] = strings.Replace(l["panel"], "panel_btn", "panel_button", 1)
		}, "layouts changed"},
		{"file-added", func(s, l map[string]string) {
			s["new.alite"] = "class N {\n\tint x;\n}\n"
		}, "file set changed"},
		{"file-removed", func(s, l map[string]string) {
			delete(s, "act1.alite")
		}, "file set changed"},
		{"shape-change", func(s, l map[string]string) {
			s["shared.alite"] = strings.Replace(s["shared.alite"], "\tView held;\n", "\tView held;\n\tView spare;\n", 1)
		}, "declaration shape changed"},
	}
	for _, tc := range cases {
		s, l := copyInput(sources, layouts)
		tc.mutate(s, l)
		// file-removed drops a referenced activity class; the rebuild may
		// legitimately fail to load, which is the same outcome scratch gives.
		res, err := AnalyzeIncremental(base, s, l, Options{}, nil)
		if err != nil {
			if _, ferr := Load(s, l); ferr == nil {
				t.Fatalf("%s: incremental failed (%v) but scratch load succeeds", tc.name, err)
			}
			continue
		}
		st := res.Incremental()
		if st.Mode != "scratch" || !strings.HasPrefix(st.Reason, tc.wantPrefix) {
			t.Fatalf("%s: mode=%q reason=%q, want scratch/%s*", tc.name, st.Mode, st.Reason, tc.wantPrefix)
		}
		if got, want := snapshot(t, res), snapshot(t, mustAnalyze(t, s, l, Options{})); got != want {
			t.Fatalf("%s: fallback solution differs from scratch", tc.name)
		}
	}

	// Provenance needs the full derivation schedule: the core layer reports
	// the fallback even when the edit is body-only.
	s, l := copyInput(sources, layouts)
	s["act0.alite"] = strings.Replace(s["act0.alite"], "\t\tthis.stash = back;\n", "\t\tthis.stash = btn;\n", 1)
	res, err := AnalyzeIncremental(base, s, l, Options{Provenance: true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st := res.Incremental(); st.Mode != "scratch" {
		t.Fatalf("provenance run: mode=%q reason=%q, want scratch", st.Mode, st.Reason)
	}
}

func mustAnalyze(t *testing.T, sources, layouts map[string]string, opts Options) *Result {
	t.Helper()
	app, err := Load(sources, layouts)
	if err != nil {
		t.Fatal(err)
	}
	return app.Analyze(opts)
}

// TestIncrementalEditCorpus runs the full differential corpus: for every
// edit class, an incremental chain (initial scratch → edited re-analysis)
// must produce byte-identical stable outputs to a one-shot analysis of the
// edited input, the mode must match the edit class, and batch runs over the
// edited corpus at 1 and 8 workers must agree with both.
func TestIncrementalEditCorpus(t *testing.T) {
	baseSources, baseLayouts := corpus.ModularApp(4)

	type variant struct {
		name     string
		sources  map[string]string
		layouts  map[string]string
		incrSnap string
	}
	var variants []variant

	for _, e := range editCorpus() {
		e := e
		t.Run(e.name, func(t *testing.T) {
			c := NewCache()
			prev, err := AnalyzeIncremental(nil, baseSources, baseLayouts, Options{}, c)
			if err != nil {
				t.Fatal(err)
			}
			s, l := copyInput(baseSources, baseLayouts)
			e.apply(s, l)

			res, err := AnalyzeIncremental(prev, s, l, Options{}, c)
			if err != nil {
				t.Fatal(err)
			}
			if got := res.Incremental().Mode; got != e.wantMode {
				t.Fatalf("mode = %q (reason %q), want %q", got, res.Incremental().Reason, e.wantMode)
			}
			snap := snapshot(t, res)
			if want := snapshot(t, mustAnalyze(t, s, l, Options{})); snap != want {
				t.Fatalf("incremental solution differs from scratch for %s", e.name)
			}

			// -explain equality: provenance forces the scratch path, but the
			// derivation trees must match a one-shot provenance analysis.
			pPrev, err := AnalyzeIncremental(nil, baseSources, baseLayouts, Options{Provenance: true}, c)
			if err != nil {
				t.Fatal(err)
			}
			pRes, err := AnalyzeIncremental(pPrev, s, l, Options{Provenance: true}, c)
			if err != nil {
				t.Fatal(err)
			}
			gotTrees, err1 := pRes.ExplainViewID("shared_tag")
			wantTrees, err2 := mustAnalyze(t, s, l, Options{Provenance: true}).ExplainViewID("shared_tag")
			if (err1 == nil) != (err2 == nil) {
				t.Fatalf("explain errors diverge: %v vs %v", err1, err2)
			}
			if err1 == nil && strings.Join(gotTrees, "\n==\n") != strings.Join(wantTrees, "\n==\n") {
				t.Fatalf("explain trees differ for %s", e.name)
			}

			variants = append(variants, variant{name: e.name, sources: s, layouts: l, incrSnap: snap})
		})
	}
	if t.Failed() {
		return
	}

	// Batch determinism over the edited corpus: 1 worker vs 8 workers with a
	// shared parse cache, each app matching its incremental snapshot.
	for _, workers := range []int{1, 8} {
		var inputs []BatchInput
		for _, v := range variants {
			// All variants share the default app name: the check report and
			// SARIF embed it, and the snapshots being compared used "app".
			inputs = append(inputs, BatchInput{Name: "app", Sources: v.sources, Layouts: v.layouts})
		}
		batch := AnalyzeBatch(inputs, BatchOptions{Workers: workers, Cache: NewCache()})
		for i, rep := range batch.Apps {
			if rep.Err != nil {
				t.Fatalf("j%d %s: %v", workers, variants[i].name, rep.Err)
			}
			if got := snapshot(t, rep.Result); got != variants[i].incrSnap {
				t.Fatalf("j%d %s: batch solution differs from incremental", workers, variants[i].name)
			}
		}
	}
}

// TestIncrementalChain applies the whole edit corpus sequentially to one
// evolving application, re-analyzing incrementally at each step — the watch
// mode usage pattern — and checks every step against scratch.
func TestIncrementalChain(t *testing.T) {
	sources, layouts := corpus.ModularApp(4)
	c := NewCache()
	res, err := AnalyzeIncremental(nil, sources, layouts, Options{}, c)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range editCorpus() {
		next, nextLayouts := copyInput(sources, layouts)
		e.apply(next, nextLayouts)
		// Edits target ModularApp(4) units; skip ones that touched nothing.
		if mapsEqual(next, sources) && mapsEqual(nextLayouts, layouts) {
			continue
		}
		res, err = AnalyzeIncremental(res, next, nextLayouts, Options{}, c)
		if err != nil {
			t.Fatalf("%s: %v", e.name, err)
		}
		if got, want := snapshot(t, res), snapshot(t, mustAnalyze(t, next, nextLayouts, Options{})); got != want {
			t.Fatalf("%s: chained incremental differs from scratch", e.name)
		}
		sources, layouts = next, nextLayouts
	}
}

// TestIncrementalParseCacheShared: the parse cache spans apps and editions —
// re-analyzing after an edit re-parses only the edited file.
func TestIncrementalParseCacheShared(t *testing.T) {
	sources, layouts := corpus.ModularApp(4)
	c := NewCache()
	if _, err := AnalyzeIncremental(nil, sources, layouts, Options{}, c); err != nil {
		t.Fatal(err)
	}
	h0, m0 := c.ParseStats()
	if m0 != int64(len(sources)) || h0 != 0 {
		t.Fatalf("cold load: hits=%d misses=%d, want 0/%d", h0, m0, len(sources))
	}
	// A second app with identical sources hits for every file.
	if _, err := LoadCached(sources, layouts, c); err != nil {
		t.Fatal(err)
	}
	h1, _ := c.ParseStats()
	if h1 != int64(len(sources)) {
		t.Fatalf("warm load: hits=%d, want %d", h1, len(sources))
	}
}

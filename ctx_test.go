package gator

// Oracle soundness and rendering tests for the context-sensitive solving
// modes (Options.ContextSensitivity). The precision-monotonicity half of
// the tentpole contract lives next to the solver
// (internal/core/ctx_test.go); this file holds the halves that need the
// public API: the concrete-interpreter soundness oracle, the acceptance
// criterion on PolymorphicHelperApp(8), the incremental-guard regression,
// and the -explain transcript with its j1≡j8 byte-equality contract.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"

	"gator/internal/corpus"
)

var ctxModes = []CtxMode{Ctx1CFA, Ctx1Obj}

func analyzePoly(t *testing.T, n int, opts Options) *Result {
	t.Helper()
	sources, layouts := corpus.PolymorphicHelperApp(n)
	return mustAnalyze(t, sources, layouts, opts)
}

// TestCtxSoundnessCorpus runs the concrete interpreter against the
// context-sensitive solutions of every corpus app: the observed set must
// stay inside the (smaller) solution in both modes.
func TestCtxSoundnessCorpus(t *testing.T) {
	apps := corpus.GenerateAll()
	if testing.Short() {
		apps = apps[:6]
	}
	for _, app := range apps {
		app := app
		t.Run(app.Spec.Name, func(t *testing.T) {
			t.Parallel()
			for _, mode := range ctxModes {
				res := mustAnalyze(t, app.BatchSources(), app.LayoutXML(),
					Options{ContextSensitivity: mode})
				er := res.Explore(1)
				if !er.Sound {
					t.Errorf("%s/%s: soundness violations: %v", app.Spec.Name, mode, er.Violations)
				}
			}
		})
	}
}

// TestCtxAcceptance is the PR's acceptance criterion at the public API: on
// PolymorphicHelperApp(8), the 1-CFA solution is strictly smaller than the
// insensitive solution while remaining a superset of the oracle's observed
// set, and the measured precision ratio improves.
func TestCtxAcceptance(t *testing.T) {
	insens := analyzePoly(t, 8, Options{})
	insensFacts := insens.ProjectedFacts()
	insensER := insens.Explore(1)
	if !insensER.Sound {
		t.Fatalf("insensitive: soundness violations: %v", insensER.Violations)
	}
	for _, mode := range ctxModes {
		res := analyzePoly(t, 8, Options{ContextSensitivity: mode})
		facts := res.ProjectedFacts()
		if len(facts) >= len(insensFacts) {
			t.Errorf("%s: solution not strictly smaller: %d facts vs %d", mode, len(facts), len(insensFacts))
		}
		inSuper := make(map[string]bool, len(insensFacts))
		for _, f := range insensFacts {
			inSuper[f] = true
		}
		for _, f := range facts {
			if !inSuper[f] {
				t.Errorf("%s: fact outside the insensitive solution: %s", mode, f)
			}
		}
		er := res.Explore(1)
		if !er.Sound {
			t.Errorf("%s: soundness violations: %v", mode, er.Violations)
		}
		if er.PrecisionRatio >= insensER.PrecisionRatio {
			t.Errorf("%s: precision ratio %.3f did not improve on insensitive %.3f",
				mode, er.PrecisionRatio, insensER.PrecisionRatio)
		}
		t.Logf("%s: %d facts (insensitive %d), ratio %.3f (insensitive %.3f)",
			mode, len(facts), len(insensFacts), er.PrecisionRatio, insensER.PrecisionRatio)
	}
}

// TestCtxIncrementalFallback is the guard regression: an incremental
// session under a context-sensitive mode must cleanly report
// Incremental().Reason = "context-sensitive", fall back to scratch, and
// return fresh facts — never stale merged ones.
func TestCtxIncrementalFallback(t *testing.T) {
	for _, mode := range ctxModes {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			sources, layouts := corpus.PolymorphicHelperApp(3)
			opts := Options{ContextSensitivity: mode}
			prev, err := AnalyzeIncremental(nil, sources, layouts, opts, nil)
			if err != nil {
				t.Fatal(err)
			}

			// Body-only edit: activity 1 now looks up its text view instead
			// of its button. A silently-stale result would still report the
			// button.
			edited := map[string]string{}
			for k, v := range sources {
				edited[k] = v
			}
			edited["ph1.alite"] = strings.Replace(edited["ph1.alite"],
				"this.findAndCast(R.id.ph1_btn)", "this.findAndCast(R.id.ph1_txt)", 1)
			if edited["ph1.alite"] == sources["ph1.alite"] {
				t.Fatal("edit did not apply")
			}

			res, err := AnalyzeIncremental(prev, edited, layouts, opts, nil)
			if err != nil {
				t.Fatal(err)
			}
			st := res.Incremental()
			if st.Mode != "scratch" || st.Reason != "context-sensitive" {
				t.Fatalf("mode=%q reason=%q, want scratch/context-sensitive", st.Mode, st.Reason)
			}
			views, err := res.VarViews("PhAct1", "onCreate", "w")
			if err != nil {
				t.Fatal(err)
			}
			var ids []string
			for _, v := range views {
				ids = append(ids, v.ID)
			}
			if len(ids) != 1 || ids[0] != "ph1_txt" {
				t.Fatalf("post-edit w = %v, want exactly [ph1_txt] (stale facts?)", ids)
			}
		})
	}
}

// TestReadmePrecisionTable pins the README's precision table to the
// checked-in BENCH_7.json record: regenerate the block between the markers
// from the record (same rendering as below), or this fails. The gated
// quantities are deterministic fact-count ratios, so a fresh
// `gatorbench -records` run reproduces them bit-for-bit.
func TestReadmePrecisionTable(t *testing.T) {
	var rec struct {
		Metrics []struct {
			Name  string  `json:"name"`
			Value float64 `json:"value"`
		} `json:"metrics"`
		Detail struct {
			Stressor struct {
				InsensitiveFacts int `json:"insensitiveFacts"`
				CfaFacts         int `json:"cfaFacts"`
				ObjFacts         int `json:"objFacts"`
			} `json:"stressor"`
		} `json:"detail"`
	}
	data, err := os.ReadFile("BENCH_7.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &rec); err != nil {
		t.Fatal(err)
	}
	stressor := rec.Detail.Stressor
	stressFacts := map[string]int{
		"off":  stressor.InsensitiveFacts,
		"1cfa": stressor.CfaFacts,
		"1obj": stressor.ObjFacts,
	}
	value := map[string]float64{}
	for _, m := range rec.Metrics {
		value[m.Name] = m.Value
	}
	var b strings.Builder
	b.WriteString("| Mode | Corpus ratio (static/observed) | Violations | `polyhelper-8` facts |\n")
	b.WriteString("|---|---|---|---|\n")
	for _, m := range rec.Metrics {
		if mode, ok := strings.CutSuffix(m.Name, ".ratio"); ok {
			fmt.Fprintf(&b, "| `%s` | %.3f | %d | %d |\n", mode, m.Value, int(value[mode+".violations"]), stressFacts[mode])
		}
	}

	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	s := string(readme)
	begin, end := "<!-- precision:begin -->\n", "<!-- precision:end -->"
	i := strings.Index(s, begin)
	j := strings.Index(s, end)
	if i < 0 || j < 0 || j < i {
		t.Fatal("README.md precision-table markers missing")
	}
	if got := s[i+len(begin) : j]; got != b.String() {
		t.Errorf("README precision table is stale; regenerate from BENCH_7.json.\n--- README ---\n%s--- record ---\n%s", got, b.String())
	}
}

// TestCtxExplainTranscript is the golden -explain transcript: derivation
// trees under 1-CFA render the context component (the interned call-site
// label), and the rendered transcript is byte-identical between a j=1 and a
// j=8 batch run — the determinism contract the batch engine promises.
func TestCtxExplainTranscript(t *testing.T) {
	sources, layouts := corpus.PolymorphicHelperApp(3)
	opts := Options{ContextSensitivity: Ctx1CFA, Provenance: true}

	transcript := func(r *Result) string {
		var b strings.Builder
		for i := 0; i < 3; i++ {
			lines, err := r.ExplainDerivation(fmt.Sprintf("PhAct%d", i), "onCreate", "w")
			if err != nil {
				t.Fatal(err)
			}
			for _, l := range lines {
				b.WriteString(l)
				b.WriteByte('\n')
			}
		}
		return b.String()
	}

	seq := transcript(mustAnalyze(t, sources, layouts, opts))
	for _, want := range []string{
		// The context component: the helper's variable under the caller's
		// interned call-site context.
		"@ cs:ph1.alite:",
		// The derivation rules the tree is annotated with.
		"[FindView", "[Inflate", "[Seed]",
		// Each caller sees exactly its own button.
		"Infl[Button@ph2:1 id=ph2_btn",
	} {
		if !strings.Contains(seq, want) {
			t.Errorf("transcript missing %q:\n%s", want, seq)
		}
	}

	inputs := []BatchInput{{Name: "poly", Sources: sources, Layouts: layouts}}
	var prev []byte
	for _, j := range []int{1, 8} {
		br := AnalyzeBatch(inputs, BatchOptions{Workers: j, Options: opts})
		if failed := br.Failed(); len(failed) > 0 {
			t.Fatalf("j=%d: %v", j, failed[0].Err)
		}
		got := []byte(transcript(br.Apps[0].Result))
		if !bytes.Equal(got, []byte(seq)) {
			t.Errorf("j=%d: transcript differs from sequential run", j)
		}
		if prev != nil && !bytes.Equal(got, prev) {
			t.Errorf("j=%d: transcript differs from j=1", j)
		}
		prev = got
	}
}

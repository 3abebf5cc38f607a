package analysis

import (
	"encoding/json"
	"strings"
	"testing"

	"gator/internal/alite"
	"gator/internal/checks"
	"gator/internal/core"
	"gator/internal/ir"
	"gator/internal/layout"
)

const buggySrc = `
class Main extends Activity {
	void onCreate() {
		View early = this.findViewById(R.id.root);
		this.setContentView(R.layout.main);
		View gone = this.findViewById(R.id.gone);
		gone.setId(R.id.root);
	}
}`

var buggyLayouts = map[string]string{
	"main":  `<LinearLayout android:id="@+id/root"/>`,
	"other": `<LinearLayout android:id="@+id/gone"/>`,
}

func analyzeSrc(t *testing.T, src string, layouts map[string]string) *core.Result {
	t.Helper()
	f, err := alite.Parse("app.alite", src)
	if err != nil {
		t.Fatal(err)
	}
	ls := map[string]*layout.Layout{}
	for name, xml := range layouts {
		ls[name] = layout.MustParse(name, xml)
	}
	p, err := ir.Build([]*alite.File{f}, ls)
	if err != nil {
		t.Fatal(err)
	}
	return core.Analyze(p, core.Options{})
}

func TestRunAllPasses(t *testing.T) {
	rep, err := Run("app", analyzeSrc(t, buggySrc, buggyLayouts), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Passes) != len(checks.All()) {
		t.Errorf("ran %d passes, want %d", len(rep.Passes), len(checks.All()))
	}
	seen := map[string]bool{}
	for _, f := range rep.Findings {
		seen[f.Check] = true
	}
	for _, want := range []string{"findview-before-setcontentview", "null-view-deref", "dangling-findview"} {
		if !seen[want] {
			t.Errorf("missing %s finding; got %v", want, rep.Findings)
		}
	}
	if rep.Warnings() == 0 {
		t.Error("no warnings counted")
	}
}

func TestRunSelection(t *testing.T) {
	res := analyzeSrc(t, buggySrc, buggyLayouts)
	rep, err := Run("app", res, Options{Checks: []string{"null-view-deref"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Passes) != 1 || rep.Passes[0].Stage != "check:null-view-deref" {
		t.Errorf("passes = %+v", rep.Passes)
	}
	for _, f := range rep.Findings {
		if f.Check != "null-view-deref" {
			t.Errorf("unselected finding %v", f)
		}
	}
	if len(rep.Findings) == 0 {
		t.Error("selected pass produced nothing")
	}

	if _, err := Run("app", res, Options{Checks: []string{"no-such-check"}}); err == nil {
		t.Error("unknown check name accepted")
	} else if !strings.Contains(err.Error(), "no-such-check") {
		t.Errorf("error does not name the bad check: %v", err)
	}
}

func TestSelectPassesGlob(t *testing.T) {
	passes, err := selectPasses([]string{"lifecycle-*"})
	if err != nil {
		t.Fatal(err)
	}
	if len(passes) < 3 {
		t.Fatalf("lifecycle-* selected %d passes, want the 3 ordering checkers", len(passes))
	}
	for _, p := range passes {
		if !strings.HasPrefix(p.ID, "lifecycle-") {
			t.Errorf("pattern lifecycle-* selected %s", p.ID)
		}
	}

	// A glob composes with exact names, dedups, and keeps registry order.
	passes, err = selectPasses([]string{"lifecycle-*", "lifecycle-dialog-misuse", "dangling-findview"})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]int{}
	for _, p := range passes {
		seen[p.ID]++
	}
	if seen["lifecycle-dialog-misuse"] != 1 {
		t.Errorf("glob + exact name duplicated a pass: %v", seen)
	}
	if seen["dangling-findview"] != 1 {
		t.Errorf("exact name alongside glob not selected: %v", seen)
	}

	// A pattern matching nothing is an error, like an unknown exact name.
	if _, err := selectPasses([]string{"nope-*"}); err == nil {
		t.Error("pattern matching no checks accepted")
	} else if !strings.Contains(err.Error(), "nope-*") {
		t.Errorf("error does not name the bad pattern: %v", err)
	}

	// A malformed pattern reports a pattern error.
	if _, err := selectPasses([]string{"lifecycle-["}); err == nil {
		t.Error("malformed pattern accepted")
	}
}

func TestRunSelectionPreservesRegistryOrder(t *testing.T) {
	res := analyzeSrc(t, buggySrc, buggyLayouts)
	// Request a CFG pass before a solution pass: execution order must still
	// be solution-first.
	rep, err := Run("app", res, Options{Checks: []string{"null-view-deref", "dangling-findview"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Passes) != 2 || rep.Passes[0].Stage != "check:dangling-findview" || rep.Passes[1].Stage != "check:null-view-deref" {
		t.Errorf("passes = %+v", rep.Passes)
	}
}

func TestSuppression(t *testing.T) {
	srcTrailing := strings.Replace(buggySrc,
		"gone.setId(R.id.root);",
		"gone.setId(R.id.root); // gator:disable null-view-deref", 1)
	res := analyzeSrc(t, srcTrailing, buggyLayouts)
	rep, err := Run("app", res, Options{
		Checks:  []string{"null-view-deref"},
		Sources: map[string]string{"app.alite": srcTrailing},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Findings) != 0 || rep.Suppressed != 1 {
		t.Errorf("findings = %v, suppressed = %d", rep.Findings, rep.Suppressed)
	}

	// Leading-comment placement: the directive covers the next line.
	srcLeading := strings.Replace(buggySrc,
		"\t\tgone.setId(R.id.root);",
		"\t\t// gator:disable\n\t\tgone.setId(R.id.root);", 1)
	rep, err = Run("app", analyzeSrc(t, srcLeading, buggyLayouts), Options{
		Checks:  []string{"null-view-deref"},
		Sources: map[string]string{"app.alite": srcLeading},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Findings) != 0 || rep.Suppressed != 1 {
		t.Errorf("bare disable: findings = %v, suppressed = %d", rep.Findings, rep.Suppressed)
	}

	// A directive naming a different check does not match.
	rep, err = Run("app", analyzeSrc(t, srcTrailing, buggyLayouts), Options{
		Checks:  []string{"null-view-deref"},
		Sources: map[string]string{"app.alite": strings.Replace(srcTrailing, "disable null-view-deref", "disable listener-reset", 1)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Findings) != 1 || rep.Suppressed != 0 {
		t.Errorf("mismatched disable: findings = %v, suppressed = %d", rep.Findings, rep.Suppressed)
	}
}

func TestSARIFShape(t *testing.T) {
	rep, err := Run("app", analyzeSrc(t, buggySrc, buggyLayouts), Options{})
	if err != nil {
		t.Fatal(err)
	}
	out, err := SARIF(rep)
	if err != nil {
		t.Fatal(err)
	}
	var log struct {
		Version string `json:"version"`
		Schema  string `json:"$schema"`
		Runs    []struct {
			Tool struct {
				Driver struct {
					Name  string `json:"name"`
					Rules []struct {
						ID               string `json:"id"`
						ShortDescription struct {
							Text string `json:"text"`
						} `json:"shortDescription"`
					} `json:"rules"`
				} `json:"driver"`
			} `json:"tool"`
			Results []struct {
				RuleID  string `json:"ruleId"`
				Level   string `json:"level"`
				Message struct {
					Text string `json:"text"`
				} `json:"message"`
				Locations []struct {
					PhysicalLocation struct {
						ArtifactLocation struct {
							URI string `json:"uri"`
						} `json:"artifactLocation"`
						Region struct {
							StartLine   int `json:"startLine"`
							StartColumn int `json:"startColumn"`
						} `json:"region"`
					} `json:"physicalLocation"`
				} `json:"locations"`
			} `json:"results"`
		} `json:"runs"`
	}
	if err := json.Unmarshal(out, &log); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if log.Version != "2.1.0" || !strings.Contains(log.Schema, "sarif-2.1.0") {
		t.Errorf("version = %q schema = %q", log.Version, log.Schema)
	}
	if len(log.Runs) != 1 {
		t.Fatalf("runs = %d", len(log.Runs))
	}
	run := log.Runs[0]
	if run.Tool.Driver.Name != "gator" || len(run.Tool.Driver.Rules) != len(checks.All()) {
		t.Errorf("driver = %s with %d rules", run.Tool.Driver.Name, len(run.Tool.Driver.Rules))
	}
	if len(run.Results) != len(rep.Findings) {
		t.Fatalf("results = %d, findings = %d", len(run.Results), len(rep.Findings))
	}
	ruleIDs := map[string]bool{}
	for _, r := range run.Tool.Driver.Rules {
		ruleIDs[r.ID] = true
		if r.ShortDescription.Text == "" {
			t.Errorf("rule %s has no description", r.ID)
		}
	}
	for _, r := range run.Results {
		if !ruleIDs[r.RuleID] {
			t.Errorf("result rule %q not declared", r.RuleID)
		}
		if r.Level != "warning" && r.Level != "note" {
			t.Errorf("level = %q", r.Level)
		}
		if r.Message.Text == "" {
			t.Error("empty message")
		}
		for _, loc := range r.Locations {
			if loc.PhysicalLocation.ArtifactLocation.URI == "" || loc.PhysicalLocation.Region.StartLine == 0 {
				t.Errorf("incomplete location %+v", loc)
			}
		}
	}
}

func TestTextRenderer(t *testing.T) {
	rep, err := Run("app", analyzeSrc(t, buggySrc, buggyLayouts), Options{})
	if err != nil {
		t.Fatal(err)
	}
	out := Text(rep)
	if !strings.Contains(out, "null-view-deref") || !strings.Contains(out, "fix:") {
		t.Errorf("text = %q", out)
	}
	if !strings.Contains(out, "warnings") {
		t.Errorf("no summary line: %q", out)
	}
}

func TestMarkdownTable(t *testing.T) {
	table := MarkdownTable()
	for _, p := range checks.All() {
		if !strings.Contains(table, "`"+p.ID+"`") {
			t.Errorf("table misses %s", p.ID)
		}
	}
	if !strings.Contains(table, "| Check | Severity |") {
		t.Errorf("missing header: %q", table[:60])
	}
}

func TestListChecks(t *testing.T) {
	out := ListChecks()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != len(checks.All()) {
		t.Errorf("%d lines for %d checks", len(lines), len(checks.All()))
	}
	if !strings.Contains(out, "listener-reset") {
		t.Errorf("listchecks = %q", out)
	}
}

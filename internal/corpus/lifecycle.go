package corpus

// Ordering-bug scenario generator: synthesized apps that seed exactly one
// lifecycle/callback-ordering bug, parameterized by which bug and by how
// deeply the buggy operation hides behind helper methods and nondet
// branches. Every buggy scenario has a clean twin — the same shape with the
// operation relocated to (or compensated in) a legal callback — so the
// measured-recall benchmark (BENCH_10.json) can report both recall
// on seeded bugs and false positives on twins that differ only in ordering.

import (
	"fmt"
	"strings"

	"gator/internal/alite"
	"gator/internal/layout"
)

// OrderingBug selects which seeded lifecycle bug a scenario contains.
type OrderingBug int

const (
	// BugUseAfterDestroy registers GUI state from onDestroy.
	BugUseAfterDestroy OrderingBug = iota
	// BugListenerLeakOnPause registers a listener in onResume and never
	// clears it on pause.
	BugListenerLeakOnPause
	// BugDialogMisuse shows a dialog from a teardown callback.
	BugDialogMisuse

	NumOrderingBugs = 3
)

func (b OrderingBug) String() string {
	switch b {
	case BugUseAfterDestroy:
		return "use-after-destroy"
	case BugListenerLeakOnPause:
		return "listener-leak-on-pause"
	case BugDialogMisuse:
		return "dialog-misuse"
	}
	return "bug?"
}

// CheckerID names the registered checker that must locate this bug.
func (b OrderingBug) CheckerID() string { return "lifecycle-" + b.String() }

// ScenarioSpec parameterizes one generated ordering scenario.
type ScenarioSpec struct {
	// Bug is the seeded defect (ignored as a defect when Clean is set).
	Bug OrderingBug
	// Depth is the helper-chain length between the lifecycle callback and
	// the buggy operation: 0 places the operation inline in the callback.
	Depth int
	// Branch wraps the operation in a nondeterministic `if (*)` branch.
	Branch bool
	// Seed varies cosmetic choices (listener event, teardown callback).
	Seed int
	// Clean generates the bug's clean twin: the identical helper/branch
	// shape with the operation placed (or compensated) legally. A clean
	// twin must produce zero findings from every lifecycle checker.
	Clean bool
}

// Name is the scenario's deterministic app name.
func (s ScenarioSpec) Name() string {
	n := fmt.Sprintf("life_%s_d%d_s%d", s.Bug, s.Depth, s.Seed)
	if s.Branch {
		n += "_br"
	}
	if s.Clean {
		n += "_clean"
	}
	return strings.ReplaceAll(n, "-", "_")
}

// CleanTwin returns the spec's clean counterpart.
func (s ScenarioSpec) CleanTwin() ScenarioSpec {
	s.Clean = true
	return s
}

// teardownOf picks the teardown callback a dialog-misuse scenario shows its
// dialog from. onDestroy is excluded to keep each scenario's defect
// attributable to exactly one checker.
func (s ScenarioSpec) teardownOf() string {
	if s.Seed%2 == 1 {
		return "onStop"
	}
	return "onPause"
}

// GenerateScenario synthesizes the app for one scenario spec. The result
// always parses and builds; the fuzz target FuzzOrderingScenario holds the
// generator to that contract for arbitrary specs.
func GenerateScenario(s ScenarioSpec) *App {
	if s.Depth < 0 {
		s.Depth = 0
	}
	ev := listenerEvents[absInt(s.Seed)%len(listenerEvents)]

	// The operation payloads, as statement lines (tab-indented later).
	register := []string{
		"View tv = this.findViewById(R.id.go);",
		"Hnd h = new Hnd();",
		fmt.Sprintf("tv.%s(h);", ev.setter),
	}
	clear := []string{
		"View cv = this.findViewById(R.id.go);",
		fmt.Sprintf("cv.%s(null);", ev.setter),
	}
	showDialog := []string{
		"Prompt dlg = new Prompt();",
		"dlg.show();",
	}

	var b strings.Builder
	fmt.Fprintf(&b, "// Generated ordering scenario %s: %s", s.Name(), s.Bug)
	if s.Clean {
		b.WriteString(" (clean twin)")
	}
	b.WriteString("\n")
	fmt.Fprintf(&b, "class Hnd implements %s {\n\tvoid %s(View v) { }\n}\n",
		ev.iface, ev.handler)
	if s.Bug == BugDialogMisuse {
		b.WriteString("class Prompt extends Dialog {\n\tvoid onStart() { }\n}\n")
	}

	b.WriteString("class Main extends Activity {\n")

	// chain emits the helper chain rooted at the named callback and returns
	// the method bodies to append after the callbacks.
	var helpers []string
	chainFrom := func(payload []string) string {
		body := payloadLines(payload, s.Branch)
		if s.Depth == 0 {
			return body
		}
		// Helper i calls i+1; the last holds the payload.
		for i := 0; i < s.Depth; i++ {
			inner := fmt.Sprintf("\t\tthis.step%d();\n", i+1)
			if i == s.Depth-1 {
				inner = body
			}
			helpers = append(helpers, fmt.Sprintf("\tvoid step%d() {\n%s\t}\n", i, inner))
		}
		return "\t\tthis.step0();\n"
	}

	onCreate := "\t\tthis.setContentView(R.layout.main);\n"
	callbacks := map[string]string{}
	switch s.Bug {
	case BugUseAfterDestroy:
		if s.Clean {
			onCreate += chainFrom(register)
			callbacks["onDestroy"] = ""
		} else {
			callbacks["onDestroy"] = chainFrom(register)
		}
	case BugListenerLeakOnPause:
		callbacks["onResume"] = chainFrom(register)
		if s.Clean {
			callbacks["onPause"] = payloadLines(clear, false)
		} else {
			callbacks["onPause"] = ""
		}
	case BugDialogMisuse:
		if s.Clean {
			callbacks["onResume"] = chainFrom(showDialog)
			callbacks[s.teardownOf()] = ""
		} else {
			callbacks[s.teardownOf()] = chainFrom(showDialog)
		}
	}

	fmt.Fprintf(&b, "\tvoid onCreate() {\n%s\t}\n", onCreate)
	for _, cb := range []string{"onStart", "onResume", "onPause", "onStop", "onDestroy"} {
		body, ok := callbacks[cb]
		if !ok {
			continue
		}
		fmt.Fprintf(&b, "\tvoid %s() {\n%s\t}\n", cb, body)
	}
	for _, h := range helpers {
		b.WriteString(h)
	}
	b.WriteString("}\n")

	name := s.Name()
	src := b.String()
	return &App{
		Name:   name,
		Source: src,
		Files:  []*alite.File{alite.MustParse(name+".alite", src)},
		Layouts: map[string]*layout.Layout{
			"main": layout.MustParse("main", `<LinearLayout><Button android:id="@+id/go"/></LinearLayout>`),
		},
	}
}

// payloadLines renders payload statements at callback-body indentation,
// optionally wrapped in a nondet branch.
func payloadLines(payload []string, branch bool) string {
	var b strings.Builder
	indent := "\t\t"
	if branch {
		b.WriteString("\t\tif (*) {\n")
		indent = "\t\t\t"
	}
	for _, line := range payload {
		b.WriteString(indent)
		b.WriteString(line)
		b.WriteString("\n")
	}
	if branch {
		b.WriteString("\t\t}\n")
	}
	return b.String()
}

func absInt(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// ScenarioPack enumerates n buggy scenario specs spread deterministically
// over the bug kinds, helper depths 0..3, and branch shapes. Clean twins
// are derived per spec with CleanTwin; the pack itself lists only the
// seeded-bug side.
func ScenarioPack(n int) []ScenarioSpec {
	out := make([]ScenarioSpec, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, ScenarioSpec{
			Bug:    OrderingBug(i % int(NumOrderingBugs)),
			Depth:  (i / int(NumOrderingBugs)) % 4,
			Branch: (i/(int(NumOrderingBugs)*4))%2 == 1,
			Seed:   i,
		})
	}
	return out
}

// Package analysis is the diagnostics driver: it runs the registered
// checker passes (package checks) over one solved reference analysis,
// applies inline suppressions, times every pass as a check:<id> stage, and
// renders the findings as plain text or SARIF. The pass registry itself
// lives in package checks; this package owns selection, ordering, and
// output policy.
package analysis

import (
	"fmt"
	"path"
	"sort"
	"strings"

	"gator/internal/checks"
	"gator/internal/core"
	"gator/internal/trace"
)

// Options selects and configures a driver run.
type Options struct {
	// Checks restricts the run to the named pass IDs. Empty means all
	// registered passes. Unknown names are an error, not a silent no-op.
	Checks []string
	// Sources maps file name → source text, as loaded into the analyzed
	// program. It is scanned for `// gator:disable` suppression comments;
	// nil disables suppression handling.
	Sources map[string]string
	// Trace, when non-nil, brackets every pass in its check:<id> stage's
	// phase events and forwards the checkers' dataflow-solver events.
	Trace *trace.Scope
}

// Report is the outcome of one driver run over one application.
type Report struct {
	// App is the analyzed application's name.
	App string
	// Findings are the kept findings in deterministic (Pos, Check, Msg)
	// order.
	Findings []checks.Finding
	// Passes is the checker passes' stage log: one check:<id> timing per
	// pass, in execution order.
	Passes trace.Log
	// Suppressed counts findings dropped by `// gator:disable` comments.
	Suppressed int
}

// Warnings counts findings at Warning severity.
func (r *Report) Warnings() int {
	n := 0
	for _, f := range r.Findings {
		if f.Severity == checks.Warning {
			n++
		}
	}
	return n
}

// Run executes the selected passes over a solved analysis. Passes run in
// registry order — all solution passes before any CFG pass, ID-sorted
// within each kind — regardless of the order names appear in opts.Checks.
func Run(app string, res *core.Result, opts Options) (*Report, error) {
	passes, err := selectPasses(opts.Checks)
	if err != nil {
		return nil, err
	}
	sup := ParseSuppressions(opts.Sources)
	ctx := checks.NewContext(res)
	ctx.Trace = opts.Trace
	rep := &Report{App: app, Passes: make(trace.Log, 0, len(passes))}
	for _, p := range passes {
		var found []checks.Finding
		opts.Trace.Stage(&rep.Passes, trace.CheckPrefix+p.ID, func() { found = p.Run(ctx) })
		kept := found[:0]
		for _, f := range found {
			if sup.Matches(f) {
				rep.Suppressed++
				continue
			}
			kept = append(kept, f)
		}
		rep.Findings = append(rep.Findings, kept...)
	}
	checks.SortFindings(rep.Findings)
	return rep, nil
}

// selectPasses resolves check names to registered passes, preserving the
// registry's execution order. A name may be a glob pattern (path.Match
// syntax, e.g. "lifecycle-*"), which selects every matching registered ID;
// a pattern matching nothing is an error just like an unknown exact name.
func selectPasses(names []string) ([]checks.Pass, error) {
	all := checks.All()
	if len(names) == 0 {
		return all, nil
	}
	want := map[string]bool{}
	for _, n := range names {
		n = strings.TrimSpace(n)
		if n == "" {
			continue
		}
		if strings.ContainsAny(n, "*?[") {
			matched := false
			for _, p := range all {
				ok, err := path.Match(n, p.ID)
				if err != nil {
					return nil, fmt.Errorf("bad check pattern %q: %v", n, err)
				}
				if ok {
					want[p.ID] = true
					matched = true
				}
			}
			if !matched {
				return nil, fmt.Errorf("check pattern %q matches no registered check (run -listchecks for the registry)", n)
			}
			continue
		}
		if _, ok := checks.PassByID(n); !ok {
			return nil, fmt.Errorf("unknown check %q (run -listchecks for the registry)", n)
		}
		want[n] = true
	}
	var out []checks.Pass
	for _, p := range all {
		if want[p.ID] {
			out = append(out, p)
		}
	}
	return out, nil
}

// Text renders the report as plain text: one line per finding, then a
// summary line.
func Text(r *Report) string {
	var b strings.Builder
	for _, f := range r.Findings {
		fmt.Fprintln(&b, f.String())
		if f.SuggestedFix != "" {
			fmt.Fprintf(&b, "\tfix: %s\n", f.SuggestedFix)
		}
	}
	warn := r.Warnings()
	fmt.Fprintf(&b, "%s: %d warnings, %d notes", r.App, warn, len(r.Findings)-warn)
	if r.Suppressed > 0 {
		fmt.Fprintf(&b, ", %d suppressed", r.Suppressed)
	}
	b.WriteString("\n")
	return b.String()
}

// MarkdownTable renders the pass registry as a Markdown table, for the
// README's checker section. Rows are in registry order.
func MarkdownTable() string {
	var b strings.Builder
	b.WriteString("| Check | Severity | Needs | Description |\n")
	b.WriteString("|---|---|---|---|\n")
	for _, p := range checks.All() {
		needs := "solution"
		if p.Kind == checks.KindCFG {
			needs = "CFG + dataflow"
		}
		fmt.Fprintf(&b, "| `%s` | %s | %s | %s |\n", p.ID, p.Severity, needs, p.Doc)
	}
	return b.String()
}

// ListChecks renders the registry as aligned plain text for -listchecks.
func ListChecks() string {
	all := checks.All()
	width := 0
	for _, p := range all {
		if len(p.ID) > width {
			width = len(p.ID)
		}
	}
	var b strings.Builder
	for _, p := range all {
		fmt.Fprintf(&b, "%-*s  %-7s  %s\n", width, p.ID, p.Severity.String(), p.Doc)
	}
	return b.String()
}

// CheckIDs returns all registered pass IDs, sorted.
func CheckIDs() []string {
	var ids []string
	for _, p := range checks.All() {
		ids = append(ids, p.ID)
	}
	sort.Strings(ids)
	return ids
}

// Package report renders analysis results into the user-facing report
// surfaces. It is the single rendering path shared by the gator CLI and the
// gatord server: both hand a solved *gator.Result to Render, so a report
// served over HTTP is byte-identical to the same report printed locally —
// the contract the server's differential tests verify (see DESIGN.md,
// "Serving").
package report

import (
	"fmt"
	"io"
	"strings"

	"gator"
	"gator/internal/cache"
)

// Request selects one report surface. The JSON tags are gatord's wire
// names: a request body carries these fields flat (server.ReportSpec is
// this type).
type Request struct {
	// Report is the report kind (see Known); "" means "summary".
	Report string `json:"report,omitempty"`
	// Explain, when non-empty, renders derivation trees instead of Report:
	// "Class.method.var" for a variable's solution, "id:name" for a view id,
	// "order:Class.cb1.cb2" for a lifecycle-ordering justification.
	// The flow forms require the result to have been computed with
	// Options.Provenance; the order form is answered from the lifecycle
	// transition table alone.
	Explain string `json:"explain,omitempty"`
	// Seed seeds the concrete interpreter for the "explore" report; 0 (an
	// omitted wire field) means 1.
	Seed int64 `json:"seed,omitempty"`
	// Checks restricts the "checks" and "sarif" reports to the named check
	// IDs; empty runs all.
	Checks []string `json:"checks,omitempty"`
}

// NeedsProvenance reports whether serving this request requires the
// solution to carry the provenance DAG.
func (r Request) NeedsProvenance() bool {
	return r.Explain != "" && !strings.HasPrefix(r.Explain, "order:")
}

// Kind returns the effective report kind ("" normalizes to "summary").
func (r Request) Kind() string {
	if r.Report == "" {
		return "summary"
	}
	return r.Report
}

// Kinds lists every report kind Render accepts, in presentation order.
func Kinds() []string {
	return []string{
		"summary", "views", "tuples", "hierarchy", "activities", "transitions",
		"menus", "check", "checks", "sarif", "table1", "table2", "dot", "ir",
		"json", "explore",
	}
}

// Known reports whether kind names a report Render accepts.
func Known(kind string) bool {
	for _, k := range Kinds() {
		if k == kind {
			return true
		}
	}
	return false
}

// Replayable reports whether the request renders byte-identically across
// repeated runs of the same input, so a result cache may replay it. Explain
// queries are not (their target is not part of CacheKey), nor are reports
// that carry wall-clock measurements.
func (r Request) Replayable() bool {
	switch r.Kind() {
	case "summary", "table2", "json": // Model JSON embeds analysisTime
		return false
	}
	return r.Explain == ""
}

// seed is the effective interpreter seed.
func (r Request) seed() int64 {
	if r.Seed == 0 {
		return 1
	}
	return r.Seed
}

// CacheKey fingerprints one rendering of an application for gatord's
// content-addressed result cache: the application's name (the checks,
// check and table1 reports print it), the options' CacheTag, the report
// kind, seed and check selection, and every source and layout. It is ""
// when the request is not Replayable.
func (r Request) CacheKey(name string, opts gator.Options, sources, layouts map[string]string) string {
	if !r.Replayable() {
		return ""
	}
	tag := fmt.Sprintf("name=%q|%s|report=%s|seed=%d|checks=%s",
		name, opts.CacheTag(), r.Kind(), r.seed(), strings.Join(r.Checks, ","))
	return cache.AppFingerprint(tag, sources, layouts)
}

// EncodeEntry is the stored form of one rendering under its CacheKey: the
// exit code as one digit, then the report's bytes.
func EncodeEntry(code int, out string) []byte {
	return append([]byte{byte('0' + code)}, out...)
}

// DecodeEntry splits a stored entry back into exit code and report; ok is
// false for an entry EncodeEntry did not write.
func DecodeEntry(entry []byte) (code int, out string, ok bool) {
	if len(entry) == 0 || entry[0] < '0' || entry[0] > '9' {
		return 0, "", false
	}
	return int(entry[0] - '0'), string(entry[1:]), true
}

// Render writes one report for res to w, diagnostics to errw, and returns
// the exit code the report asks for: 0 ok, 1 report-level failure (warnings
// present, soundness violation, unknown explain target), 2 bad request
// (unknown report kind or malformed explain query).
func Render(w, errw io.Writer, name string, res *gator.Result, req Request) int {
	if req.Explain != "" {
		var trees []string
		var err error
		if strings.HasPrefix(req.Explain, "order:") {
			parts := strings.SplitN(strings.TrimPrefix(req.Explain, "order:"), ".", 3)
			if len(parts) != 3 {
				fmt.Fprintln(errw, "gator: -explain order: wants order:Class.cb1.cb2")
				return 2
			}
			tree, oerr := res.ExplainOrdering(parts[0], parts[1], parts[2])
			if oerr != nil {
				// API errors already carry the "gator: " prefix.
				fmt.Fprintln(errw, oerr)
				return 1
			}
			fmt.Fprint(w, tree)
			return 0
		}
		if strings.HasPrefix(req.Explain, "id:") {
			trees, err = res.ExplainViewID(strings.TrimPrefix(req.Explain, "id:"))
		} else {
			parts := strings.SplitN(req.Explain, ".", 3)
			if len(parts) != 3 {
				fmt.Fprintln(errw, "gator: -explain wants Class.method.var or id:name")
				return 2
			}
			trees, err = res.ExplainDerivation(parts[0], parts[1], parts[2])
		}
		if err != nil {
			// API errors already carry the "gator: " prefix.
			fmt.Fprintln(errw, err)
			return 1
		}
		for i, t := range trees {
			if i > 0 {
				fmt.Fprintln(w)
			}
			fmt.Fprint(w, t)
		}
		return 0
	}

	switch req.Kind() {
	case "summary":
		t1 := res.Table1()
		fmt.Fprintf(w, "%s: %d classes, %d methods\n", name, t1.Classes, t1.Methods)
		fmt.Fprintf(w, "ids: %d layouts, %d view ids\n", t1.LayoutIDs, t1.ViewIDs)
		fmt.Fprintf(w, "views: %d inflated, %d allocated; %d listeners\n",
			t1.ViewsInflated, t1.ViewsAllocated, t1.Listeners)
		fmt.Fprintf(w, "ops: %d inflate, %d find-view, %d add-view, %d set-listener, %d set-id\n",
			t1.InflateOps, t1.FindViewOps, t1.AddViewOps, t1.SetListenerOps, t1.SetIdOps)
		fmt.Fprintf(w, "analysis: %v, %d fixpoint rounds\n", res.Elapsed(), res.Iterations())
	case "views":
		for _, v := range res.Views() {
			id := v.ID
			if id == "" {
				id = "-"
			}
			fmt.Fprintf(w, "%-20s %-28s id=%s\n", v.Class, v.Origin, id)
		}
	case "tuples":
		for _, t := range res.EventTuples() {
			act := t.Activity
			if act == "" {
				act = "-"
			}
			fmt.Fprintf(w, "activity=%-20s view=%s(%s) event=%-12s handler=%s\n",
				act, t.View.Class, t.View.Origin, t.Event, t.Handler)
		}
	case "hierarchy":
		for _, e := range res.Hierarchy() {
			fmt.Fprintf(w, "%s(%s) => %s(%s)\n", e.Parent.Class, e.Parent.Origin, e.Child.Class, e.Child.Origin)
		}
	case "activities":
		for _, a := range res.Activities() {
			fmt.Fprintf(w, "%s:\n", a.Activity)
			for _, r := range a.Roots {
				fmt.Fprintf(w, "\troot %s (%s)\n", r.Class, r.Origin)
			}
		}
	case "table1":
		fmt.Fprintf(w, "%+v\n", res.Table1())
	case "table2":
		r := res.Table2()
		fmt.Fprintf(w, "time=%v receivers=%.2f results=%.2f listeners=%.2f\n",
			r.Time, r.AvgReceivers, r.AvgResults, r.AvgListeners)
	case "check":
		fs := res.Check()
		warnings := 0
		for _, f := range fs {
			where := f.Pos
			if where == "" {
				where = name
			}
			fmt.Fprintf(w, "%s: %s: [%s] %s\n", where, f.Severity, f.Check, f.Msg)
			if f.Severity == "warning" {
				warnings++
			}
		}
		if warnings > 0 {
			return 1
		}
	case "checks":
		cr, err := res.CheckReport(req.Checks...)
		if err != nil {
			fmt.Fprintln(errw, "gator:", err)
			return 2
		}
		fmt.Fprint(w, cr.Text())
		if cr.Warnings() > 0 {
			return 1
		}
	case "sarif":
		cr, err := res.CheckReport(req.Checks...)
		if err != nil {
			fmt.Fprintln(errw, "gator:", err)
			return 2
		}
		data, err := cr.SARIF()
		if err != nil {
			fmt.Fprintln(errw, "gator:", err)
			return 1
		}
		w.Write(data)
		if cr.Warnings() > 0 {
			return 1
		}
	case "menus":
		for _, e := range res.MenuEntries() {
			fmt.Fprintf(w, "activity=%-20s item=%-16s handler=%s\n", e.Activity, e.ItemID, e.Handler)
		}
	case "transitions":
		for _, tr := range res.Transitions() {
			fmt.Fprintf(w, "%s -> %s  (via %s)\n", tr.Source, tr.Target, tr.Via)
		}
	case "json":
		data, err := res.Model().JSON()
		if err != nil {
			fmt.Fprintln(errw, "gator:", err)
			return 1
		}
		fmt.Fprintln(w, string(data))
	case "ir":
		fmt.Fprint(w, res.DumpIR())
	case "dot":
		fmt.Fprint(w, res.Dot())
	case "explore":
		rep := res.Explore(req.seed())
		fmt.Fprintf(w, "sound=%v sites=%d perfect=%d steps=%d\n",
			rep.Sound, rep.ObservedSites, rep.PerfectSites, rep.Steps)
		for _, v := range rep.Violations {
			fmt.Fprintln(w, "violation:", v)
		}
		if !rep.Sound {
			return 1
		}
	default:
		fmt.Fprintf(errw, "gator: unknown report %q\n", req.Kind())
		return 2
	}
	return 0
}

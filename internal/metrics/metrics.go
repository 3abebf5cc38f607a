// Package metrics computes the measurements reported in Section 5 of the
// paper: Table 1 (application features and constraint graph node counts),
// Table 2 (analysis cost and average solution sizes per operation node), and
// the case-study precision comparison against the interpreter oracle.
package metrics

import (
	"fmt"
	"strings"
	"time"

	"gator/internal/core"
	"gator/internal/graph"
	"gator/internal/platform"
)

// Table1Row is one application's row of Table 1.
type Table1Row struct {
	App     string
	Classes int // application classes and interfaces
	Methods int // declared application methods (incl. constructors)

	LayoutIDs int // L: R.layout constants
	ViewIDs   int // V: R.id constants

	ViewsInflated  int // I: inflation-created view nodes
	ViewsAllocated int // A: allocation-site view nodes

	Listeners int // listener allocation nodes

	InflateOps     int // Inflate1 + Inflate2 operation nodes
	FindViewOps    int // FindView1 + FindView2 + FindView3 operation nodes
	AddViewOps     int // AddView1 + AddView2 operation nodes
	SetListenerOps int
	SetIdOps       int
}

// Table1 measures a solved analysis result.
func Table1(app string, res *core.Result) Table1Row {
	row := Table1Row{App: app}
	for _, c := range res.Prog.AppClasses() {
		row.Classes++
		row.Methods += len(c.Methods)
	}
	row.LayoutIDs = res.Prog.R.NumLayouts()
	row.ViewIDs = res.Prog.R.NumViewIDs()
	row.ViewsInflated = len(res.Graph.Infls())
	for _, a := range res.Graph.Allocs() {
		if a.IsView {
			row.ViewsAllocated++
		}
		if a.IsListener {
			row.Listeners++
		}
	}
	for _, op := range res.Graph.Ops() {
		switch op.Kind {
		case platform.OpInflate1, platform.OpInflate2:
			row.InflateOps++
		case platform.OpFindView1, platform.OpFindView2, platform.OpFindView3:
			row.FindViewOps++
		case platform.OpAddView1, platform.OpAddView2:
			row.AddViewOps++
		case platform.OpSetListener:
			row.SetListenerOps++
		case platform.OpSetId:
			row.SetIdOps++
		}
	}
	return row
}

// Table2Row is one application's row of Table 2.
type Table2Row struct {
	App  string
	Time time.Duration

	// AvgReceivers is the average number of view objects reaching the
	// receiver of view-receiver operations (FindView1/3, AddView2, SetId,
	// SetListener), over operations reached by at least one view.
	AvgReceivers float64
	// AvgParameters is the average number of views reaching an AddView
	// operation as the child parameter; NaN-free: HasAddView reports
	// whether any AddView operation was reached (the paper prints "-").
	AvgParameters float64
	HasAddView    bool
	// AvgResults is the average number of views output by find-view
	// operations (FindView1/2/3), over operations producing at least one.
	AvgResults float64
	// AvgListeners is the average number of listener values reaching the
	// listener argument of set-listener operations.
	AvgListeners float64
}

// Table2 measures the solution sizes of a solved result, averaged over
// source operations (core.Result.SourceOps): under context cloning, one
// call's op nodes count once, with their solutions unioned and values
// counted by source identity. The analysis time is supplied by the caller
// (measure around core.Analyze).
func Table2(app string, res *core.Result, elapsed time.Duration) Table2Row {
	row := Table2Row{App: app, Time: elapsed}

	recvSum, recvN := 0, 0
	parmSum, parmN := 0, 0
	resSum, resN := 0, 0
	lstSum, lstN := 0, 0

	for _, so := range res.SourceOps() {
		kind := so.Ops[0].Kind
		switch kind {
		case platform.OpFindView1, platform.OpFindView3, platform.OpAddView2,
			platform.OpSetId, platform.OpSetListener:
			if n := core.CanonCount(so.Receivers, graph.IsViewValue); n > 0 {
				recvSum += n
				recvN++
			}
		}
		switch kind {
		case platform.OpAddView1, platform.OpAddView2:
			if n := core.CanonCount(so.Arg0, graph.IsViewValue); n > 0 {
				parmSum += n
				parmN++
			}
		case platform.OpSetListener:
			if n := core.CanonCount(so.Arg0, graph.IsListenerValue); n > 0 {
				lstSum += n
				lstN++
			}
		}
		switch kind {
		case platform.OpFindView1, platform.OpFindView2, platform.OpFindView3:
			if n := core.CanonCount(so.Results, graph.IsViewValue); n > 0 {
				resSum += n
				resN++
			}
		}
	}

	if recvN > 0 {
		row.AvgReceivers = float64(recvSum) / float64(recvN)
	}
	if parmN > 0 {
		row.AvgParameters = float64(parmSum) / float64(parmN)
		row.HasAddView = true
	}
	if resN > 0 {
		row.AvgResults = float64(resSum) / float64(resN)
	}
	if lstN > 0 {
		row.AvgListeners = float64(lstSum) / float64(lstN)
	}
	return row
}

// FormatTable1 renders rows in the paper's layout.
func FormatTable1(rows []Table1Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-16s %8s %8s %9s %11s %9s %9s %10s %9s %13s %7s\n",
		"App", "Classes", "Methods", "ids(L/V)", "views(I/A)", "listeners",
		"Inflate", "FindView", "AddView", "SetListener", "SetId")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-16s %8d %8d %4d/%-4d %5d/%-5d %9d %9d %10d %9d %13d %7d\n",
			r.App, r.Classes, r.Methods, r.LayoutIDs, r.ViewIDs,
			r.ViewsInflated, r.ViewsAllocated, r.Listeners,
			r.InflateOps, r.FindViewOps, r.AddViewOps, r.SetListenerOps, r.SetIdOps)
	}
	return b.String()
}

// FormatTable2 renders rows in the paper's layout.
func FormatTable2(rows []Table2Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-16s %9s %10s %11s %8s %10s\n",
		"App", "Time(s)", "receivers", "parameters", "results", "listeners")
	for _, r := range rows {
		parm := "-"
		if r.HasAddView {
			parm = fmt.Sprintf("%.2f", r.AvgParameters)
		}
		fmt.Fprintf(&b, "%-16s %9.2f %10.2f %11s %8.2f %10.2f\n",
			r.App, r.Time.Seconds(), r.AvgReceivers, parm, r.AvgResults, r.AvgListeners)
	}
	return b.String()
}

// PrecisionRow is one application's row of the Section 5 case study:
// soundness and exactness of the static solution against the interpreter
// oracle.
type PrecisionRow struct {
	App           string
	ObservedSites int
	PerfectSites  int
	Violations    int
	Steps         int
	// Ratio is the canonical static-solution size over the oracle's
	// observed-fact count: 1.00 is an exact solution, larger is a looser
	// over-approximation. Zero when the oracle observed nothing.
	Ratio float64
}

// FormatPrecision renders case-study rows.
func FormatPrecision(rows []PrecisionRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-16s %9s %9s %11s %10s %7s\n", "App", "sites", "perfect", "violations", "steps", "ratio")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-16s %9d %9d %11d %10d %7.2f\n",
			r.App, r.ObservedSites, r.PerfectSites, r.Violations, r.Steps, r.Ratio)
	}
	return b.String()
}

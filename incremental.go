package gator

import (
	"errors"
	"maps"
	"sort"

	"gator/internal/alite"
	"gator/internal/core"
	"gator/internal/ir"
	"gator/internal/trace"
)

// IncrementalStats describes how an AnalyzeIncremental run was computed:
// Mode "warm", "scratch" or "unchanged", the Reason for a scratch fallback,
// the Retained and Retracted fact counts, and the DirtyUnits edited.
type IncrementalStats = core.IncrementalStats

// Incremental reports how this result was computed. For results of Analyze
// the stats are zero; AnalyzeIncremental always fills in Mode.
func (r *Result) Incremental() IncrementalStats { return r.incr }

// Stale reports whether this result has been consumed by a later
// AnalyzeIncremental call that patched the underlying program in place.
// Queries on a stale result are unreliable; see DESIGN.md.
func (r *Result) Stale() bool { return r.invalid }

// ErrStaleResult is returned when a stale result is passed as the previous
// solution.
var ErrStaleResult = errors.New("gator: previous result is stale (already consumed by a later incremental analysis)")

// AnalyzeIncremental re-analyzes an application after an edit, reusing as
// much of prev as the edit allows. sources and layouts are the full post-edit
// input (the same maps Load takes); the edit is discovered by diffing them
// against what prev analyzed. The returned solution is equal to what
// Load+Analyze of the post-edit input computes — every content-ordered query
// (Views, Hierarchy, EventTuples, SARIF, ...) renders byte-identically.
//
// The fast path applies when only method bodies changed in known source
// files: the edited files are re-lowered in place (ir.PatchFile) and the
// solver retracts only facts whose derivation reached an edited file
// (core.AnalyzeIncremental). That path consumes prev — the previous result
// shares the patched program and becomes Stale; passing it again returns
// ErrStaleResult. Any other edit (layout changes, added or removed files,
// declaration-shape changes) rebuilds from scratch, reusing c's parse cache,
// and leaves prev intact.
//
// prev == nil is allowed and performs the initial full analysis, so a watch
// loop can call this uniformly. c may be nil to disable parse caching.
func AnalyzeIncremental(prev *Result, sources, layouts map[string]string, opts Options, c *Cache) (*Result, error) {
	if prev == nil {
		return analyzeFull(nil, sources, layouts, opts, c, "no previous result")
	}
	if prev.invalid {
		return nil, ErrStaleResult
	}
	app := prev.app
	if !mapsEqual(app.layouts, layouts) {
		// Layout linking resolves parsed layouts in place during ir.Build, so
		// there is no patched middle ground for layout edits.
		return analyzeFull(prev, sources, layouts, opts, c, "layouts changed")
	}
	var dirty []string
	for name, src := range sources {
		old, ok := app.sources[name]
		if !ok {
			return analyzeFull(prev, sources, layouts, opts, c, "file set changed")
		}
		if old != src {
			dirty = append(dirty, name)
		}
	}
	if len(sources) != len(app.sources) {
		return analyzeFull(prev, sources, layouts, opts, c, "file set changed")
	}
	if len(dirty) == 0 {
		// Nothing ran, so the re-reported result records no stages.
		prev.incr = IncrementalStats{Mode: "unchanged"}
		prev.stages = nil
		return prev, nil
	}
	sort.Strings(dirty)

	// Parse the edited files; a declaration-shape change (new method, renamed
	// field, changed hierarchy) invalidates clean-file IR pointers, so only
	// body-confined edits may patch in place.
	var stages trace.Log
	var files []*alite.File
	var oldShapes []string
	var err error
	opts.Trace.Stage(&stages, trace.StageParse, func() {
		if files, err = parseFiles(dirty, sources, c, opts.Trace); err == nil {
			oldShapes, err = app.shapesOf(dirty, c)
		}
	})
	if err != nil {
		return nil, err
	}
	shapes := make([]string, len(files))
	for i, f := range files {
		if shapes[i] = ir.ShapeSignature(f); shapes[i] != oldShapes[i] {
			return analyzeFull(prev, sources, layouts, opts, c, "declaration shape changed: "+dirty[i])
		}
	}

	// Body-only edit: re-lower the dirty files inside prev's program. This
	// mutates the program prev's facts refer to, so prev is consumed either
	// way — even if patching fails and we fall back to a fresh build.
	prog := app.prog
	prev.invalid = true
	opts.Trace.Stage(&stages, trace.StageLower, func() {
		for _, f := range files {
			if err = ir.PatchFile(prog, f); err != nil {
				return
			}
		}
	})
	if err != nil {
		return analyzeFull(prev, sources, layouts, opts, c, "patch failed: "+err.Error())
	}
	res := core.AnalyzeIncremental(prog, opts.internal(), prev.res, dirty)

	newShapes := maps.Clone(app.shapes)
	if newShapes == nil {
		newShapes = make(map[string]string, len(dirty))
	}
	for i, name := range dirty {
		newShapes[name] = shapes[i]
	}
	newApp := &App{Name: app.Name, prog: prog, sources: maps.Clone(sources), layouts: app.layouts, shapes: newShapes, stages: stages}
	return newApp.result(res, opts.Trace, res.Incr), nil
}

// analyzeFull is the scratch path: a complete load and solve, still tracking
// unit dependencies so the next edit can go warm, and still sharing c's
// parse cache.
func analyzeFull(prev *Result, sources, layouts map[string]string, opts Options, c *Cache, reason string) (*Result, error) {
	app, err := loadApp(sources, layouts, c, opts.Trace)
	if err != nil {
		return nil, err
	}
	if prev != nil {
		app.Name = prev.app.Name
	}
	iopts := opts.internal()
	iopts.Incremental = true
	return app.result(core.Analyze(app.prog, iopts), opts.Trace, IncrementalStats{Mode: "scratch", Reason: reason}), nil
}

// shapesOf returns the declaration shapes of the named files before the
// edit: the ones an earlier edit recorded, and for the other files the
// shapes of their previous sources, parsed through c when it is set.
func (app *App) shapesOf(names []string, c *Cache) ([]string, error) {
	out := make([]string, len(names))
	for i, name := range names {
		sh, ok := app.shapes[name]
		if !ok {
			files, err := parseFiles(names[i:i+1], app.sources, c, nil)
			if err != nil {
				return nil, err
			}
			sh = ir.ShapeSignature(files[0])
		}
		out[i] = sh
	}
	return out, nil
}

func mapsEqual(a, b map[string]string) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if bv, ok := b[k]; !ok || bv != v {
			return false
		}
	}
	return true
}

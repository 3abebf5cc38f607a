package oracle

import (
	"testing"

	"gator/internal/core"
	"gator/internal/corpus"
	"gator/internal/interp"
	"gator/internal/ir"
)

// TestCorpusSoundnessAndPrecision runs the full Section 5 case study as a
// regression test: zero violations everywhere, perfect precision on every
// app except the XBMC outlier (whose imperfection is the paper's finding).
func TestCorpusSoundnessAndPrecision(t *testing.T) {
	if testing.Short() {
		t.Skip("full-corpus study skipped in -short mode")
	}
	for _, app := range corpus.GenerateAll() {
		app := app
		t.Run(app.Name, func(t *testing.T) {
			prog, err := ir.Build(app.FreshFiles(), app.FreshLayouts())
			if err != nil {
				t.Fatal(err)
			}
			res := core.Analyze(prog, core.Options{})
			obs := interp.New(prog, interp.Config{Seed: 1}).Run()
			rep := Compare(res, obs)
			if !rep.Sound() {
				t.Fatalf("%d violations; first: %s", len(rep.Violations), rep.Violations[0])
			}
			if app.Name == "XBMC" {
				if rep.PerfectSites == rep.ObservedSites {
					t.Error("XBMC should show the context-insensitivity imprecision")
				}
				return
			}
			if rep.PerfectSites != rep.ObservedSites {
				t.Errorf("perfect %d/%d sites", rep.PerfectSites, rep.ObservedSites)
			}
		})
	}
}

// TestCorpusSoundnessCtx1CFA repeats the study under the 1-CFA
// context-sensitive refinement; it must stay sound.
func TestCorpusSoundnessCtx1CFA(t *testing.T) {
	if testing.Short() {
		t.Skip("full-corpus study skipped in -short mode")
	}
	for _, name := range []string{"Astrid", "XBMC", "SuperGenPass"} {
		spec, _ := corpus.SpecByName(name)
		app := corpus.Generate(spec)
		prog, err := ir.Build(app.FreshFiles(), app.FreshLayouts())
		if err != nil {
			t.Fatal(err)
		}
		res := core.Analyze(prog, core.Options{ContextSensitivity: core.Ctx1CFA})
		obs := interp.New(prog, interp.Config{Seed: 2}).Run()
		if rep := Compare(res, obs); !rep.Sound() {
			t.Errorf("%s: %d violations; first: %s", name, len(rep.Violations), rep.Violations[0])
		}
	}
}

package oracle

import (
	"testing"
	"testing/quick"

	"gator/internal/alite"
	"gator/internal/core"
	"gator/internal/corpus"
	"gator/internal/interp"
	"gator/internal/ir"
	"gator/internal/layout"
)

// buildRandom resolves a RandomApp; generation is designed to always yield
// well-typed programs, so a build failure is itself a property violation.
func buildRandom(t *testing.T, seed int64) *ir.Program {
	t.Helper()
	sources, layoutXML := corpus.RandomApp(seed)
	var files []*alite.File
	for name, src := range sources {
		f, err := alite.Parse(name, src)
		if err != nil {
			t.Fatalf("seed %d: generated source does not parse: %v\n%s", seed, err, src)
		}
		files = append(files, f)
	}
	ls := map[string]*layout.Layout{}
	for name, xml := range layoutXML {
		l, err := layout.Parse(name, xml)
		if err != nil {
			t.Fatalf("seed %d: generated layout does not parse: %v", seed, err)
		}
		ls[name] = l
	}
	p, err := ir.Build(files, ls)
	if err != nil {
		t.Fatalf("seed %d: generated program does not resolve: %v\n%s", seed, err, sources["random.alite"])
	}
	return p
}

// TestPropertySoundness is the central property of the paper's analysis:
// for random programs and random executions, every concretely observed
// receiver/argument/result at every operation site — and every structural
// association — is covered by the static solution.
func TestPropertySoundness(t *testing.T) {
	prop := func(seed int64) bool {
		p := buildRandom(t, seed)
		res := core.Analyze(p, core.Options{})
		for _, runSeed := range []int64{1, 2} {
			obs := interp.New(p, interp.Config{Seed: runSeed, MaxSteps: 50000}).Run()
			rep := Compare(res, obs)
			if !rep.Sound() {
				sources, _ := corpus.RandomApp(seed)
				t.Logf("seed %d runSeed %d: %d violations; first: %s\nprogram:\n%s",
					seed, runSeed, len(rep.Violations), rep.Violations[0], sources["random.alite"])
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 40}
	if testing.Short() {
		cfg.MaxCount = 10
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestPropertySoundnessWithRefinements re-checks soundness under every
// sound analysis variant, including the reference solver schedule, whose
// solutions must all cover every concrete execution.
func TestPropertySoundnessWithRefinements(t *testing.T) {
	variants := []core.Options{
		{FilterCasts: true},
		{SharedInflation: true},
		{NoFindView3Refinement: true},
		{ContextSensitivity: core.Ctx1CFA},
		{FilterCasts: true, SharedInflation: true},
		{ContextSensitivity: core.Ctx1CFA, FilterCasts: true},
		{ReferenceSolver: true},
	}
	prop := func(seed int64) bool {
		p := buildRandom(t, seed)
		obs := interp.New(p, interp.Config{Seed: 1, MaxSteps: 50000}).Run()
		for _, opts := range variants {
			res := core.Analyze(p, opts)
			if rep := Compare(res, obs); !rep.Sound() {
				t.Logf("seed %d opts %+v: %s", seed, opts, rep.Violations[0])
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 15}
	if testing.Short() {
		cfg.MaxCount = 5
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyDeterminism: analyzing twice yields identical solutions at
// every operation node, in identical order.
func TestPropertyDeterminism(t *testing.T) {
	prop := func(seed int64) bool {
		p := buildRandom(t, seed)
		a := core.Analyze(p, core.Options{})
		b := core.Analyze(p, core.Options{})
		opsA, opsB := a.Graph.Ops(), b.Graph.Ops()
		if len(opsA) != len(opsB) {
			return false
		}
		for i := range opsA {
			va, vb := a.OpResults(opsA[i]).Slice(), b.OpResults(opsB[i]).Slice()
			if len(va) != len(vb) {
				return false
			}
			for j := range va {
				if va[j].String() != vb[j].String() {
					return false
				}
			}
		}
		return a.Iterations == b.Iterations
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyMonotoneRefinement: cast filtering only ever shrinks
// solutions (it is a refinement, never an addition).
func TestPropertyMonotoneRefinement(t *testing.T) {
	prop := func(seed int64) bool {
		p := buildRandom(t, seed)
		base := core.Analyze(p, core.Options{})
		filt := core.Analyze(p, core.Options{FilterCasts: true})
		opsB, opsF := base.Graph.Ops(), filt.Graph.Ops()
		if len(opsB) != len(opsF) {
			return false
		}
		for i := range opsB {
			if len(filt.OpResults(opsF[i]).Slice()) > len(base.OpResults(opsB[i]).Slice()) {
				return false
			}
			if len(filt.OpReceivers(opsF[i]).Slice()) > len(base.OpReceivers(opsB[i]).Slice()) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

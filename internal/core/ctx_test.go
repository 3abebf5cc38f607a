package core

// Context-sensitivity tests: labeled 1-CFA cloning (Options.
// ContextSensitivity) against the paper's context-insensitive baseline.
// Two properties are held over the whole corpus plus the polymorphic-helper
// stressor, in the differential_test.go style:
//
//   - Soundness is delegated to the oracle harness at the repo root
//     (ctx_test.go there runs the concrete interpreter under 1-CFA); here
//     the differential harness holds every solver engine byte-identical
//     under 1-CFA.
//   - Monotone precision: the context-sensitive solution, projected back to
//     source identities (ProjectedSolution), is a subset of the insensitive
//     solution on every corpus app and 100 seeded-random programs, and a
//     *strict* subset on PolymorphicHelperApp — the acceptance criterion.

import (
	"fmt"
	"testing"

	"gator/internal/corpus"
	"gator/internal/graph"
	"gator/internal/ir"
)

func polyProg(t testing.TB, n int) *ir.Program {
	sources, layouts := corpus.PolymorphicHelperApp(n)
	return buildMaps(t, sources, layouts)
}

// findVar locates a named local in Class.method for points-to queries.
func findVar(t testing.TB, p *ir.Program, class, method, name string) *ir.Var {
	t.Helper()
	for _, c := range p.AppClasses() {
		if c.Name != class {
			continue
		}
		for _, m := range c.Methods {
			if m.Name != method {
				continue
			}
			for _, v := range m.Locals {
				if v.Name == name {
					return v
				}
			}
		}
	}
	t.Fatalf("%s.%s: no local %q", class, method, name)
	return nil
}

// assertSubset fails unless every line of sub appears in super.
func assertSubset(t *testing.T, label string, sub, super []string) {
	t.Helper()
	superSet := make(map[string]bool, len(super))
	for _, line := range super {
		superSet[line] = true
	}
	for _, line := range sub {
		if !superSet[line] {
			t.Errorf("%s: fact not in the insensitive solution: %s", label, line)
		}
	}
}

// TestPolymorphicHelperGolden pins the expected solution of the canonical
// polymorphic-helper shape in both modes: insensitive, every caller's w
// merges all n buttons; under 1-CFA, each caller gets exactly its own
// button.
func TestPolymorphicHelperGolden(t *testing.T) {
	const n = 4
	for _, mode := range []CtxMode{CtxOff, Ctx1CFA} {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			t.Parallel()
			p := polyProg(t, n)
			r := Analyze(p, Options{ContextSensitivity: mode})
			for i := 0; i < n; i++ {
				cls := fmt.Sprintf("PhAct%d", i)
				w := findVar(t, p, cls, "onCreate", "w")
				got := map[string]bool{}
				for _, v := range r.VarPointsTo(w).Slice() {
					infl, ok := v.(*graph.InflNode)
					if !ok {
						t.Fatalf("%s: w holds non-view %s", cls, v)
					}
					got[infl.IDName] = true
				}
				if mode == CtxOff {
					if len(got) != n {
						t.Errorf("%s: insensitive w holds %d buttons, want all %d: %v", cls, len(got), n, got)
					}
					continue
				}
				want := fmt.Sprintf("ph%d_btn", i)
				if len(got) != 1 || !got[want] {
					t.Errorf("%s: %s w = %v, want exactly {%s}", cls, mode, got, want)
				}
			}
		})
	}
}

// TestPolymorphicHelperStrictness is the acceptance criterion: on
// PolymorphicHelperApp(8) the 1-CFA solution is strictly smaller than the
// insensitive solution (and still a subset — the oracle-superset half is
// checked at the repo root against the concrete interpreter).
func TestPolymorphicHelperStrictness(t *testing.T) {
	insens := Analyze(polyProg(t, 8), Options{}).ProjectedSolution()
	ctx := Analyze(polyProg(t, 8), Options{ContextSensitivity: Ctx1CFA}).ProjectedSolution()
	assertSubset(t, "1cfa", ctx, insens)
	if len(ctx) >= len(insens) {
		t.Errorf("solution not strictly smaller: %d facts vs %d insensitive", len(ctx), len(insens))
	}
	t.Logf("%d facts vs %d insensitive", len(ctx), len(insens))
}

// TestCtxMonotonicityCorpus holds projected refinement on every registered
// corpus app, Figure 1, and the polymorphic stressor.
func TestCtxMonotonicityCorpus(t *testing.T) {
	type app struct {
		name  string
		build func() *ir.Program
	}
	var apps []app
	for _, ca := range corpus.GenerateAll() {
		ca := ca
		apps = append(apps, app{ca.Spec.Name, func() *ir.Program {
			return buildMaps(t, ca.BatchSources(), ca.LayoutXML())
		}})
	}
	if testing.Short() {
		apps = apps[:6]
	}
	apps = append(apps,
		app{"figure1", func() *ir.Program {
			p, err := ir.Build(corpus.Figure1Files(), corpus.Figure1Layouts())
			if err != nil {
				t.Fatal(err)
			}
			return p
		}},
		app{"polyhelper8", func() *ir.Program { return polyProg(t, 8) }},
	)
	for _, a := range apps {
		a := a
		t.Run(a.name, func(t *testing.T) {
			t.Parallel()
			insens := Analyze(a.build(), Options{}).ProjectedSolution()
			ctx := Analyze(a.build(), Options{ContextSensitivity: Ctx1CFA}).ProjectedSolution()
			assertSubset(t, a.name, ctx, insens)
		})
	}
}

// TestCtxMonotonicityRandom sweeps 100 seeded-random programs through
// 1-CFA; the generator is deterministic per seed, so failures reproduce.
func TestCtxMonotonicityRandom(t *testing.T) {
	seeds := 100
	if testing.Short() {
		seeds = 20
	}
	for block := 0; block < 4; block++ {
		block := block
		t.Run(fmt.Sprintf("block%d", block), func(t *testing.T) {
			t.Parallel()
			for seed := block; seed < seeds; seed += 4 {
				sources, layouts := corpus.RandomApp(int64(seed))
				insens := Analyze(buildMaps(t, sources, layouts), Options{}).ProjectedSolution()
				ctx := Analyze(buildMaps(t, sources, layouts),
					Options{ContextSensitivity: Ctx1CFA}).ProjectedSolution()
				assertSubset(t, fmt.Sprintf("seed%d", seed), ctx, insens)
			}
		})
	}
}

// TestCtxDifferentialVariants holds every solver engine byte-identical to
// the reference schedule under 1-CFA — the same invariant
// differential_test.go holds for the insensitive configurations.
func TestCtxDifferentialVariants(t *testing.T) {
	sources, layouts := corpus.PolymorphicHelperApp(6)
	opts := Options{ContextSensitivity: Ctx1CFA}
	t.Run(Ctx1CFA.String(), func(t *testing.T) {
		diffApp(t, "polyhelper6-1cfa", mapBuilder(t, sources, layouts), opts)
		diffApp(t, "figure1-1cfa", func() *ir.Program {
			p, err := ir.Build(corpus.Figure1Files(), corpus.Figure1Layouts())
			if err != nil {
				t.Fatal(err)
			}
			return p
		}, opts)
	})
}

// TestCtxLabelsRendered pins the context component renderers and derivation
// trees show: cloned variable nodes carry the interned call-site label.
func TestCtxLabelsRendered(t *testing.T) {
	const want = "cs:ph2.alite:"
	p := polyProg(t, 4)
	r := Analyze(p, Options{ContextSensitivity: Ctx1CFA})
	v := findVar(t, p, "BaseAct", "findAndCast", "v")
	variants := r.VarNodesOf(v)
	if len(variants) != 5 { // ctx-0 node + one clone per caller
		t.Fatalf("%d variants of helper v, want 5", len(variants))
	}
	found := false
	for _, n := range variants[1:] {
		if n.CtxLabel == "" {
			t.Errorf("clone %s has no context label", n)
		}
		if containsStr(n.String(), want) {
			found = true
		}
	}
	if !found {
		t.Errorf("no clone of helper v renders label %q; variants: %v", want, variants)
	}
}

func containsStr(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

package core

// The differential solver harness: the standing invariant of the default
// schedule (the delta operation worklist) is that it computes exactly the
// solution of the apply-every-operation schedule
// (Options.ReferenceSolver). This file checks that invariant on every
// registered corpus application, the paper's Figure 1 app, a multi-unit
// modular app (past the 64-unit bitset page boundary), and a swarm of
// seeded-random applications.
//
// Identity is checked at full strength: canonical (content-sorted)
// solution strings are byte-identical, Iterations match, points-to
// insertion order matches the reference engine, and with Provenance
// enabled the recorded derivation DAG — the source of Result.Why trees —
// is deeply equal.

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"

	"gator/internal/alite"
	"gator/internal/corpus"
	"gator/internal/graph"
	"gator/internal/ir"
	"gator/internal/layout"
)

// mapBuilder adapts a (sources, layouts) string-map pair to diffApp's
// fresh-program contract. Each run gets its own ir.Program, so runs cannot
// observe each other through shared program state.
func mapBuilder(t *testing.T, sources, layouts map[string]string) func() *ir.Program {
	return func() *ir.Program { return buildMaps(t, sources, layouts) }
}

func buildMaps(t testing.TB, sources, layouts map[string]string) *ir.Program {
	t.Helper()
	names := make([]string, 0, len(sources))
	for n := range sources {
		names = append(names, n)
	}
	sort.Strings(names)
	files := make([]*alite.File, 0, len(names))
	for _, n := range names {
		f, err := alite.Parse(n, sources[n])
		if err != nil {
			t.Fatalf("%s: %v", n, err)
		}
		files = append(files, f)
	}
	ls := map[string]*layout.Layout{}
	for name, xml := range layouts {
		ls[name] = layout.MustParse(name, xml)
	}
	p, err := ir.Build(files, ls)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// solutionString renders the full solution — every non-empty points-to set
// plus every derived relation — as one string. Relation pairs are always
// sorted (the underlying relation maps iterate in map order); points-to
// values keep insertion order when ordered is true and are sorted
// otherwise.
func solutionString(r *Result, ordered bool) string {
	var b strings.Builder
	fmt.Fprintf(&b, "iterations %d\n", r.Iterations)
	for _, n := range r.Graph.Nodes() {
		vals := r.PointsTo(n).Slice()
		if len(vals) == 0 {
			continue
		}
		names := valueNamesTB(vals)
		if !ordered {
			sort.Strings(names)
		}
		fmt.Fprintf(&b, "pts %s = {%s}\n", n, strings.Join(names, ", "))
	}
	var rel []string
	pair := func(kind string) func(a, b graph.Value) {
		return func(a, b graph.Value) {
			rel = append(rel, kind+" "+a.String()+" -> "+b.String())
		}
	}
	r.Graph.Pairs(graph.RelChild, pair("child"))
	r.Graph.Pairs(graph.RelListener, pair("listener"))
	r.Graph.Pairs(graph.RelRoot, pair("root"))
	r.Graph.Pairs(graph.RelMenuItem, pair("menuitem"))
	for _, n := range r.Graph.Nodes() {
		v, ok := n.(graph.Value)
		if !ok {
			continue
		}
		for _, id := range r.Graph.Succ(graph.RelViewID, v).Slice() {
			rel = append(rel, "viewid "+v.String()+" -> "+id.String())
		}
		for _, tgt := range r.Graph.Succ(graph.RelIntent, v).Slice() {
			rel = append(rel, "intent "+v.String()+" -> "+tgt.String())
		}
		for _, l := range r.Graph.Succ(graph.RelLayoutOf, v).Slice() {
			rel = append(rel, "layoutof "+v.String()+" -> "+l.String())
		}
	}
	sort.Strings(rel)
	for _, line := range rel {
		b.WriteString(line)
		b.WriteByte('\n')
	}
	return b.String()
}

func valueNamesTB(vals []graph.Value) []string {
	out := make([]string, len(vals))
	for i, v := range vals {
		out[i] = v.String()
	}
	return out
}

// diffApp runs the optimized engine against the reference engine on one
// application and fails on any divergence. build must return a fresh
// program on every call.
func diffApp(t *testing.T, label string, build func() *ir.Program, base Options) {
	t.Helper()
	refOpts := base
	refOpts.ReferenceSolver = true
	ref := Analyze(build(), refOpts)
	r := Analyze(build(), base)
	if want, got := solutionString(ref, false), solutionString(r, false); got != want {
		t.Errorf("%s: solution diverges from reference:\n%s", label, firstDiff(want, got))
	} else if want, got := solutionString(ref, true), solutionString(r, true); got != want {
		t.Errorf("%s: points-to insertion order diverges from reference:\n%s", label, firstDiff(want, got))
	}

	// Provenance runs record first-derivation-wins Why trees keyed by
	// stable node ids; any schedule drift shows up as a different DAG.
	provOpts := base
	provOpts.Provenance = true
	provRefOpts := provOpts
	provRefOpts.ReferenceSolver = true
	provRef := Analyze(build(), provRefOpts)
	prov := Analyze(build(), provOpts)
	if !reflect.DeepEqual(prov.rec.deriv, provRef.rec.deriv) {
		t.Errorf("%s: derivation DAG diverges from reference (%d vs %d facts)",
			label, len(prov.rec.deriv), len(provRef.rec.deriv))
	}
}

// firstDiff locates the first line where two solution strings diverge.
func firstDiff(want, got string) string {
	w := strings.Split(want, "\n")
	g := strings.Split(got, "\n")
	for i := 0; i < len(w) && i < len(g); i++ {
		if w[i] != g[i] {
			return fmt.Sprintf("line %d:\n  reference: %s\n  variant:   %s", i+1, w[i], g[i])
		}
	}
	return fmt.Sprintf("line counts differ: reference %d, variant %d", len(w), len(g))
}

// TestDifferentialCorpus holds the optimized engine byte-identical to the
// reference engine on the registered corpus applications and Figure 1,
// under both the default options and the cast-filtering refinement (the
// one option that changes propagation itself).
func TestDifferentialCorpus(t *testing.T) {
	apps := corpus.GenerateAll()
	if testing.Short() {
		apps = apps[:6]
	}
	for _, app := range apps {
		app := app
		t.Run(app.Spec.Name, func(t *testing.T) {
			t.Parallel()
			diffApp(t, app.Spec.Name, mapBuilder(t, app.BatchSources(), app.LayoutXML()), Options{})
		})
	}
	t.Run("figure1", func(t *testing.T) {
		t.Parallel()
		build := func() *ir.Program {
			p, err := ir.Build(corpus.Figure1Files(), corpus.Figure1Layouts())
			if err != nil {
				t.Fatal(err)
			}
			return p
		}
		diffApp(t, "figure1", build, Options{})
		diffApp(t, "figure1-casts", build, Options{FilterCasts: true})
		diffApp(t, "figure1-ctx1", build, Options{ContextSensitivity: Ctx1CFA})
	})
	t.Run("modular80", func(t *testing.T) {
		t.Parallel()
		// 40 activities -> 82 compilation units: exercises the paged
		// unit bitsets past the first 64-bit word.
		sources, layouts := corpus.ModularApp(40)
		diffApp(t, "modular80", mapBuilder(t, sources, layouts), Options{})
	})
	t.Run("chain", func(t *testing.T) {
		t.Parallel()
		// The deep-fixpoint benchmark shape: roughly one outer iteration
		// per findViewById chain stage, so the delta worklist actually
		// skips work. Small instance here; the benchmarks run the 501-unit
		// version.
		sources, layouts := corpus.ModularChainApp(6, 5)
		diffApp(t, "chain", mapBuilder(t, sources, layouts), Options{})
	})
}

// TestDifferentialRandom sweeps seeded-random applications through both
// engines. The generator is deterministic per seed, so failures
// reproduce by seed number.
func TestDifferentialRandom(t *testing.T) {
	seeds := 200
	if testing.Short() {
		seeds = 40
	}
	for block := 0; block < 8; block++ {
		block := block
		t.Run(fmt.Sprintf("block%d", block), func(t *testing.T) {
			t.Parallel()
			for seed := block; seed < seeds; seed += 8 {
				sources, layouts := corpus.RandomApp(int64(seed))
				diffApp(t, fmt.Sprintf("seed%d", seed), mapBuilder(t, sources, layouts), Options{})
			}
		})
	}
}

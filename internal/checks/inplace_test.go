package checks

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"gator/internal/alite"
	"gator/internal/cfg"
	"gator/internal/core"
	"gator/internal/corpus"
	"gator/internal/dataflow"
	"gator/internal/ir"
	"gator/internal/layout"
)

// pureTransfer is the copy-per-statement reference for an instance that
// updates facts in place: its Transfer copies the input before calling the
// wrapped Transfer, so no fact it is handed ever changes.
type pureTransfer[F any] struct{ dataflow.Analysis[F] }

func (p pureTransfer[F]) Transfer(s ir.Stmt, in F) F {
	return p.Analysis.Transfer(s, p.Analysis.Copy(in))
}

// TestInPlaceTransferMatchesPure holds the four dataflow instances —
// nullness, reaching definitions, and the content and listener analyses of
// the flow checkers — to their pure references on every application method
// of the 21 corpus apps, the 9 chain apps and the golden apps: the solved
// block facts and every per-statement fact from VisitStmts and At agree,
// and neither replay (nor updating the fact At returns) changes the stored
// In and Out facts.
func TestInPlaceTransferMatchesPure(t *testing.T) {
	for _, app := range inPlaceApps(t) {
		ctx := NewContext(app.res)
		for _, m := range ctx.AppMethods() {
			g := ctx.CFG(m)
			where := app.name + ": " + m.String()
			// Call sites drive the two checker instances: every one
			// installs content or registers a listener, so Transfer updates
			// the fact at each call, and listener bits span several words.
			setBySite := map[*ir.Invoke][]int{}
			index := map[*ir.Invoke]int{}
			for _, b := range g.Blocks {
				for _, s := range b.Stmts {
					if inv, ok := s.(*ir.Invoke); ok {
						setBySite[inv] = []int{len(index) % 3}
						index[inv] = 17 * len(index)
					}
				}
			}
			checkInPlace(t, where+" nullness", g, ctx.Nullness(m).An)
			checkInPlace(t, where+" reaching", g, dataflow.NewReachingDefs(g).Result().An)
			checkInPlace[contentFact](t, where+" content", g, contentAnalysis{setBySite: setBySite})
			checkInPlace[dataflow.Bits](t, where+" listener", g, listenerAnalysis{index: index})
		}
	}
}

func checkInPlace[F any](t *testing.T, where string, g *cfg.Graph, an dataflow.Analysis[F]) {
	t.Helper()
	res := dataflow.Forward(g, an)
	ref := dataflow.Forward[F](g, pureTransfer[F]{an})
	in := make([]F, len(g.Blocks))
	out := make([]F, len(g.Blocks))
	for i := range g.Blocks {
		if !an.Equal(res.In[i], ref.In[i]) || !an.Equal(res.Out[i], ref.Out[i]) {
			t.Fatalf("%s: block %d: solved facts differ from the pure reference", where, i)
		}
		in[i], out[i] = an.Copy(res.In[i]), an.Copy(res.Out[i])
	}

	var got, want []F
	res.VisitStmts(func(_ *cfg.Block, _ ir.Stmt, before F) { got = append(got, an.Copy(before)) })
	ref.VisitStmts(func(_ *cfg.Block, _ ir.Stmt, before F) { want = append(want, an.Copy(before)) })
	if len(got) != len(want) {
		t.Fatalf("%s: VisitStmts visited %d statements, the pure reference %d", where, len(got), len(want))
	}
	k := 0
	for _, b := range g.Blocks {
		for _, s := range b.Stmts {
			if !an.Equal(got[k], want[k]) {
				t.Fatalf("%s: VisitStmts fact before %s differs from the pure reference", where, s)
			}
			at, ok := res.At(s)
			refAt, refOK := ref.At(s)
			if !ok || !refOK || !an.Equal(at, refAt) || !an.Equal(at, got[k]) {
				t.Fatalf("%s: At(%s) differs from the pure reference or from VisitStmts", where, s)
			}
			// The caller owns what At returns: updating it must not reach
			// the stored facts.
			an.Transfer(s, at)
			k++
		}
	}
	for i := range g.Blocks {
		if !an.Equal(res.In[i], in[i]) || !an.Equal(res.Out[i], out[i]) {
			t.Fatalf("%s: block %d: VisitStmts or At changed a stored fact", where, i)
		}
	}
}

type inPlaceApp struct {
	name string
	res  *core.Result
}

// inPlaceApps solves the corpus apps, the chain apps and the golden apps
// under the paper's configuration.
func inPlaceApps(t *testing.T) []inPlaceApp {
	t.Helper()
	return inPlaceAppsUnder(t, core.Options{})
}

// inPlaceAppsUnder solves the apps of inPlaceApps under opts.
func inPlaceAppsUnder(t *testing.T, opts core.Options) []inPlaceApp {
	t.Helper()
	var apps []inPlaceApp
	for _, a := range corpus.GenerateAll() {
		apps = append(apps, solveApp(t, a.Name, a.FreshFiles(), a.FreshLayouts(), opts))
	}
	apps = append(apps, solveApp(t, "Figure1", corpus.Figure1ClosedFiles(), corpus.Figure1Layouts(), opts))
	for i := 0; i < 9; i++ {
		nAct, depth := 40+5*i, 12+3*i/2
		name := fmt.Sprintf("chain-%d-%d", nAct, depth)
		sources, layoutXML := corpus.ModularChainApp(nAct, depth)
		var files []*alite.File
		for _, fn := range sortedNames(sources) {
			files = append(files, alite.MustParse(fn, sources[fn]))
		}
		layouts := map[string]*layout.Layout{}
		for ln, xml := range layoutXML {
			layouts[ln] = layout.MustParse(ln, xml)
		}
		apps = append(apps, solveApp(t, name, files, layouts, opts))
	}
	dirs, err := filepath.Glob(filepath.Join("testdata", "*"))
	if err != nil {
		t.Fatal(err)
	}
	for _, dir := range dirs {
		if fi, err := os.Stat(dir); err == nil && fi.IsDir() {
			files, layouts := loadDir(t, dir)
			apps = append(apps, solveApp(t, dir, files, layouts, opts))
		}
	}
	return apps
}

// solveApp lowers and solves one app under opts.
func solveApp(t *testing.T, name string, files []*alite.File, layouts map[string]*layout.Layout, opts core.Options) inPlaceApp {
	t.Helper()
	p, err := ir.Build(files, layouts)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return inPlaceApp{name, core.Analyze(p, opts)}
}

func sortedNames(m map[string]string) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

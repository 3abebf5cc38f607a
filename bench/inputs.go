package main

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"gator/internal/alite"
	"gator/internal/corpus"
	"gator/internal/layout"
)

// input is one application: ALite sources by file name and layout XML by
// layout name, the two maps gator.Load takes.
type input struct {
	Name    string
	Sources map[string]string
	Layouts map[string]string
}

// sourceBytes is the total size of the ALite sources.
func (in input) sourceBytes() int {
	n := 0
	for _, src := range in.Sources {
		n += len(src)
	}
	return n
}

// workload is one set of inputs the benchmark runs, all under the paper's
// configuration (Options{}). A batch workload analyzes each input in
// process, the way `gator -sarif` does for one app; the serve workload sends
// its inputs to an in-process gatord as a traffic mix (serve.go).
type workload struct {
	name   string
	serve  bool
	inputs func(seed int64) []input
}

var workloads = []workload{
	{name: "corpus", inputs: func(int64) []input { return paperApps() }},
	{name: "chain", inputs: chainApps},
	{name: "serve", serve: true, inputs: func(int64) []input { return paperApps() }},
}

func workloadByName(name string) (workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (known: %s)", name, strings.Join(names, ", "))
}

// paperApps returns the paper's 20 Table 1 apps plus the closed Figure 1
// app printed back to text: 21 inputs. With 21 equally weighted inputs,
// 0.5·N and 0.9·N are not integers, so the pooled p50 and p90 fall inside
// one app's latency cluster instead of on the edge between two.
func paperApps() []input {
	var out []input
	for _, a := range corpus.GenerateAll() {
		out = append(out, input{Name: a.Name, Sources: a.BatchSources(), Layouts: a.LayoutXML()})
	}
	fig := input{Name: "Figure1", Sources: map[string]string{}, Layouts: map[string]string{}}
	for _, f := range corpus.Figure1ClosedFiles() {
		fig.Sources[f.Name] = alite.Print(f)
	}
	for name, l := range corpus.Figure1Layouts() {
		fig.Layouts[name] = layout.Render(l)
	}
	return append(out, fig)
}

// chainApps draws the 9 deep-fixpoint apps. App i sits in size stratum i:
// depth 12+1.5i (rounded down) and 40+5i activities, and the seed adds 0 or
// 1 activity. The strata pin the work of a pass, and the apps the pooled
// p50 and p90 land in, so that runs with different seeds measure the same
// thing; the seed still changes the drawn apps.
func chainApps(seed int64) []input {
	rng := rand.New(rand.NewSource(seed))
	out := make([]input, 9)
	for i := range out {
		nAct := 40 + 5*i + rng.Intn(2)
		depth := 12 + 3*i/2
		sources, layouts := corpus.ModularChainApp(nAct, depth)
		out[i] = input{Name: fmt.Sprintf("chain-%d-%d", nAct, depth), Sources: sources, Layouts: layouts}
	}
	return out
}

// patchApp is the app every serve client keeps a warm session on, and the
// two act1.alite body edits its patches alternate between.
type patchApp struct {
	input
	edits [2]string
}

func newPatchApp() (patchApp, error) {
	sources, layouts := corpus.ModularApp(30)
	base := sources["act1.alite"]
	p := patchApp{input: input{Name: "modular-30", Sources: sources, Layouts: layouts}}
	for i, to := range []string{"btn", "p"} {
		p.edits[i] = strings.Replace(base, "\t\tthis.stash = back;\n", "\t\tthis.stash = "+to+";\n", 1)
		if p.edits[i] == base {
			return patchApp{}, fmt.Errorf("patch edit %d does not apply to act1.alite", i)
		}
	}
	return p, nil
}

// edited returns the session's sources after patch variant v.
func (p patchApp) edited(v int) map[string]string {
	out := make(map[string]string, len(p.Sources))
	for name, src := range p.Sources {
		out[name] = src
	}
	out["act1.alite"] = p.edits[v]
	return out
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

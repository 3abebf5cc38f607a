package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"strings"
)

// compareMain implements `compare A.json... -- B.json...`: for each
// workload and end-to-end metric it prints both sides' medians and
// quartiles and a verdict against the metric's bound in BENCHMARK.json, and
// for each "worse" names the layer whose self time moved most, from the
// traced runs' results files. It exits 1 when any verdict is "worse".
func compareMain(args []string, stdout, stderr io.Writer) int {
	sep := slices.Index(args, "--")
	if sep <= 0 || sep == len(args)-1 {
		fmt.Fprintln(stderr, "usage: compare A.json... -- B.json...")
		return 2
	}
	spec, err := loadSpec(specPath)
	if err != nil {
		fmt.Fprintln(stderr, "compare:", err)
		return 2
	}
	a, err := readResultsFiles(args[:sep])
	if err != nil {
		fmt.Fprintln(stderr, "compare:", err)
		return 2
	}
	b, err := readResultsFiles(args[sep+1:])
	if err != nil {
		fmt.Fprintln(stderr, "compare:", err)
		return 2
	}
	if compare(stdout, spec, a, b) {
		return 1
	}
	return 0
}

func readResultsFiles(paths []string) ([]resultsFile, error) {
	var out []resultsFile
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var f resultsFile
		if err := json.Unmarshal(data, &f); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		out = append(out, f)
	}
	return out, nil
}

// runsOf selects one workload's results files of one trace mode, in the
// order given.
func runsOf(files []resultsFile, workload string, trace int) []resultsFile {
	var out []resultsFile
	for _, f := range files {
		if f.Workload == workload && f.Trace == trace {
			out = append(out, f)
		}
	}
	return out
}

// compare prints the comparison and reports whether any verdict was
// "worse".
func compare(w io.Writer, spec *benchSpec, a, b []resultsFile) bool {
	var workloadNames []string
	for _, f := range append(append([]resultsFile(nil), a...), b...) {
		if !slices.Contains(workloadNames, f.Workload) {
			workloadNames = append(workloadNames, f.Workload)
		}
	}
	anyWorse := false
	for _, wl := range workloadNames {
		a0, b0 := runsOf(a, wl, 0), runsOf(b, wl, 0)
		if len(a0) == 0 || len(b0) == 0 {
			fmt.Fprintf(w, "%s: no untraced runs on both sides (%d vs %d)\n\n", wl, len(a0), len(b0))
			continue
		}
		fmt.Fprintf(w, "%s: A %d runs, B %d runs\n", wl, len(a0), len(b0))
		fmt.Fprintf(w, "  %-18s %-34s %-34s %8s  %s\n", "metric", "A median [q1, q3]", "B median [q1, q3]", "change", "verdict")
		for _, m := range spec.EndToEnd {
			av, bv := values(a0, m.Name), values(b0, m.Name)
			if len(av) == 0 || len(bv) == 0 {
				continue
			}
			verdict := judge(m, av, bv)
			aq1, am, aq3 := quartiles(av)
			bq1, bm, bq3 := quartiles(bv)
			fmt.Fprintf(w, "  %-18s %-34s %-34s %+7.1f%%  %s\n", m.Name,
				fmt.Sprintf("%.4g [%.4g, %.4g] %s", am, aq1, aq3, m.Unit),
				fmt.Sprintf("%.4g [%.4g, %.4g] %s", bm, bq1, bq3, m.Unit),
				100*(bm-am)/am, verdict)
			if verdict == "worse" {
				anyWorse = true
				if layers := spec.expectedLayers(m.Name, wl); len(layers) > 0 {
					fmt.Fprintf(w, "    layers.json expects it to move with: %s\n", strings.Join(layers, ", "))
				}
				if layer, am, bm, ok := layerThatMoved(runsOf(a, wl, 1), runsOf(b, wl, 1)); ok {
					fmt.Fprintf(w, "    layer that moved most: %s, self time %.4g -> %.4g ms/op\n", layer, am, bm)
				} else {
					fmt.Fprintf(w, "    no traced runs on both sides to name the layer that moved\n")
				}
			}
		}
		fmt.Fprintln(w)
	}
	return anyWorse
}

func values(files []resultsFile, metric string) []float64 {
	var out []float64
	for _, f := range files {
		if v, ok := f.Metrics[metric]; ok {
			out = append(out, v.Value)
		}
	}
	return out
}

// judge compares side B with side A on one metric. It is "unresolved" when
// either side's spread (quartile distance over median) is wider than the
// bound, unless every B run is better than every A run. Otherwise B is
// "worse" when its median is worse by more than the bound, and "better"
// when it wins at least nine tenths of the runs paired in the order given
// and its median is better by more than A's quartile distance.
func judge(m metricSpec, a, b []float64) string {
	sign := 1.0 // sign*(b-a) > 0 means b is worse
	if m.Better == "higher" {
		sign = -1
	}
	aq1, am, aq3 := quartiles(a)
	bq1, bm, bq3 := quartiles(b)
	allBetter := true
	for _, x := range a {
		for _, y := range b {
			allBetter = allBetter && sign*(y-x) < 0
		}
	}
	if (aq3-aq1)/am > m.Bound || (bq3-bq1)/bm > m.Bound {
		if allBetter {
			return "better"
		}
		return "unresolved"
	}
	if sign*(bm-am)/am > m.Bound {
		return "worse"
	}
	pairs, wins := min(len(a), len(b)), 0
	for i := 0; i < pairs; i++ {
		if sign*(b[i]-a[i]) < 0 {
			wins++
		}
	}
	if sign*(bm-am) < 0 && math.Abs(bm-am) > aq3-aq1 && wins*10 >= pairs*9 {
		return "better"
	}
	return "no worse"
}

// layerThatMoved returns the traced layer whose median self time per op
// differs most between the two sides.
func layerThatMoved(a, b []resultsFile) (layer string, am, bm float64, ok bool) {
	if len(a) == 0 || len(b) == 0 {
		return "", 0, 0, false
	}
	best := -1.0
	for _, name := range sortedKeys(a[0].SelfMs) {
		av, bv := selfValues(a, name), selfValues(b, name)
		if len(bv) == 0 {
			continue
		}
		x, y := median(av), median(bv)
		if d := math.Abs(y - x); d > best {
			layer, am, bm, best = name, x, y, d
		}
	}
	return layer, am, bm, best >= 0
}

func selfValues(files []resultsFile, layer string) []float64 {
	var out []float64
	for _, f := range files {
		if v, ok := f.SelfMs[layer]; ok {
			out = append(out, v)
		}
	}
	return out
}

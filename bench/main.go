// Command bench is the repository benchmark. It drives gator's layers on
// one workload, times every operation, holds every output to a reference
// solve, and prints its metrics as the last line of standard output:
//
//	bash bench/run.sh --workload corpus --seed 1 --seconds 30 --trace 0
//	bash bench/run.sh compare A.json... -- B.json...
//
// --trace 0 measures the untraced window and prints the end-to-end
// metrics; --trace 1 makes the traced run and prints the per-layer ones.
// Both are declared, with units, in BENCHMARK.json at the repository
// root. See README.md for the workloads and metrics.
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"time"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout, os.Stderr))
	}
	os.Exit(runMain(os.Args[1:], os.Stdout, os.Stderr))
}

// metricSpec is one metric declared in BENCHMARK.json.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// benchSpec is the part of BENCHMARK.json the benchmark reads, plus the
// layer groups of layers.json.
type benchSpec struct {
	Workloads []metricSpec `json:"workloads"` // only the names are read
	EndToEnd  []metricSpec `json:"end_to_end"`
	PerLayer  []metricSpec `json:"per_layer"`
	Layers    []layerGroup `json:"-"`
}

// layerGroup is one layer's per-layer metrics and the end-to-end metrics,
// each on one workload, that a change to the layer should move.
type layerGroup struct {
	Layer   string      `json:"layer"`
	Metrics []string    `json:"metrics"`
	Moves   []layerMove `json:"moves"`
}

type layerMove struct {
	Metric   string `json:"metric"`
	Workload string `json:"workload"`
}

// layersJSON maps every per-layer metric of BENCHMARK.json to its layer
// group.
//
//go:embed layers.json
var layersJSON []byte

// specPath is BENCHMARK.json, relative to the repository root the
// benchmark runs from.
const specPath = "BENCHMARK.json"

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// loadSpec reads BENCHMARK.json and layers.json and checks that they agree:
// every per-layer metric is in exactly one layer group, and every metric
// and workload a group names is declared.
func loadSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spec benchSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if err := json.Unmarshal(layersJSON, &spec.Layers); err != nil {
		return nil, fmt.Errorf("layers.json: %w", err)
	}
	for _, m := range append(spec.EndToEnd, spec.PerLayer...) {
		if !metricName.MatchString(m.Name) {
			return nil, fmt.Errorf("%s: bad metric name %q", path, m.Name)
		}
	}
	declared := func(specs []metricSpec, name string) bool {
		return slices.ContainsFunc(specs, func(m metricSpec) bool { return m.Name == name })
	}
	group := map[string]string{}
	for _, g := range spec.Layers {
		for _, name := range g.Metrics {
			if prev, ok := group[name]; ok {
				return nil, fmt.Errorf("layers.json: %s is in layers %s and %s", name, prev, g.Layer)
			}
			group[name] = g.Layer
		}
		for _, mv := range g.Moves {
			if !declared(spec.EndToEnd, mv.Metric) || !declared(spec.Workloads, mv.Workload) {
				return nil, fmt.Errorf("layers.json: layer %s moves %s on %s, which %s does not declare", g.Layer, mv.Metric, mv.Workload, path)
			}
		}
	}
	for _, m := range spec.PerLayer {
		if _, ok := group[m.Name]; !ok {
			return nil, fmt.Errorf("layers.json: per-layer metric %s is in no layer", m.Name)
		}
		delete(group, m.Name)
	}
	for name, layer := range group {
		return nil, fmt.Errorf("layers.json: layer %s names undeclared per-layer metric %s", layer, name)
	}
	return &spec, nil
}

// expectedLayers returns the layers that should move metric on workload.
func (s *benchSpec) expectedLayers(metric, workload string) []string {
	var out []string
	for _, g := range s.Layers {
		if slices.Contains(g.Moves, layerMove{Metric: metric, Workload: workload}) {
			out = append(out, g.Layer)
		}
	}
	return out
}

// result is what one run measured.
type result struct {
	samples   []sample
	attempted int
	failed    int
	failures  []string
	metrics   map[string]float64
	// unscaled holds the time metrics of a window before scaling to the
	// reference speed, and calibrationMs the window's median calibration
	// unit (calibrate.go).
	unscaled      map[string]float64
	calibrationMs float64
	// selfMs is the mean self time per op of each traced layer.
	selfMs map[string]float64
	rows   []row
	chrome []chromeEvent
	// notApplicable names the declared metrics the workload cannot measure;
	// they read 0.
	notApplicable []string
}

// row is one input's line in the results file.
type row struct {
	Input    string             `json:"input"`
	Ops      int                `json:"ops"`
	MedianMs float64            `json:"median_ms"`
	SelfMs   map[string]float64 `json:"self_ms,omitempty"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summary is the line the benchmark prints last.
type summary struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// resultsFile is the results file: the summary plus what compare and a
// reader need to place it.
type resultsFile struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    int    `json:"trace"`
	summary
	NotApplicable []string           `json:"not_applicable,omitempty"`
	Unscaled      map[string]float64 `json:"unscaled,omitempty"`
	CalibrationMs float64            `json:"calibration_ms,omitempty"`
	SelfMs        map[string]float64 `json:"self_ms,omitempty"`
	Rows          []row              `json:"rows"`
	Failures      []string           `json:"failures,omitempty"`
}

// run sets up the workload and runs the window or the traced run.
func run(cfg config) (*result, error) {
	w, err := workloadByName(cfg.workload)
	if err != nil {
		return nil, err
	}
	st, setupS, err := setUp(cfg, w)
	if err != nil {
		return nil, err
	}
	defer st.close()
	if cfg.trace {
		return st.tracedRun()
	}
	res, err := st.measureWindow()
	if err != nil {
		return nil, err
	}
	// Set-up ran just before the window, close enough in time to be scaled
	// by the window's calibration.
	res.metrics["setup_s"] = setupS * calRefMs / res.calibrationMs
	res.unscaled["setup_s"] = setupS
	return res, nil
}

// summarize keeps exactly the declared metrics, with their units.
func summarize(res *result, declared []metricSpec) (summary, error) {
	s := summary{Correct: res.failed == 0, Attempted: res.attempted, Failed: res.failed, Metrics: map[string]metricValue{}}
	for _, m := range declared {
		v, ok := res.metrics[m.Name]
		if !ok {
			return s, fmt.Errorf("declared metric %s was not measured", m.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return s, fmt.Errorf("metric %s is %v", m.Name, v)
		}
		s.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}
	return s, nil
}

func runMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload: corpus, chain or serve")
	seed := fs.Int64("seed", 1, "seed for the pass order, the chain draws and the serve pattern")
	seconds := fs.Float64("seconds", 30, "length of the measured window, in seconds")
	traced := fs.Int("trace", 0, "1 makes the traced run and prints the per-layer metrics")
	out := fs.String("out", "", "results file (default .bench_build/results/<workload>-trace<T>-seed<N>.json)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || (*traced != 0 && *traced != 1) || *seconds < 0 {
		fs.Usage()
		return 2
	}
	spec, err := loadSpec(specPath)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	cfg := config{
		workload:     *workload,
		seed:         *seed,
		window:       time.Duration(*seconds * float64(time.Second)),
		trace:        *traced == 1,
		setupReps:    3,
		tracedPasses: 2,
	}
	if cfg.trace {
		// A traced run does not report setup_s.
		cfg.setupReps = 1
	}
	res, err := run(cfg)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	declared := spec.EndToEnd
	if cfg.trace {
		declared = spec.PerLayer
	}
	sum, err := summarize(res, declared)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if *out == "" {
		*out = filepath.Join(".bench_build", "results", fmt.Sprintf("%s-trace%d-seed%d.json", cfg.workload, *traced, cfg.seed))
	}
	doc := resultsFile{Workload: cfg.workload, Seed: cfg.seed, Trace: *traced, summary: sum, NotApplicable: res.notApplicable,
		Unscaled: res.unscaled, CalibrationMs: res.calibrationMs, SelfMs: res.selfMs, Rows: res.rows, Failures: res.failures}
	if err := writeResults(*out, doc, res.chrome); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	for _, m := range declared {
		if slices.Contains(res.notApplicable, m.Name) {
			fmt.Fprintf(stderr, "%-48s %14s\n", m.Name, "n/a")
			continue
		}
		fmt.Fprintf(stderr, "%-48s %14.4f %s\n", m.Name, sum.Metrics[m.Name].Value, m.Unit)
	}
	if res.unscaled != nil {
		fmt.Fprintf(stderr, "unscaled (calibration unit median %.4f ms, reference %.1f ms):\n", res.calibrationMs, calRefMs)
		for _, name := range sortedKeys(res.unscaled) {
			fmt.Fprintf(stderr, "  %-46s %14.4f\n", name, res.unscaled[name])
		}
	}
	for _, f := range res.failures {
		fmt.Fprintln(stderr, "bench: failed:", f)
	}
	line, err := json.Marshal(sum)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !sum.Correct {
		return 1
	}
	return 0
}

// writeResults writes the results file and, for a traced run, the Chrome
// trace beside it.
func writeResults(path string, doc resultsFile, chrome []chromeEvent) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	if chrome == nil {
		return nil
	}
	ext := filepath.Ext(path)
	return writeChrome(path[:len(path)-len(ext)]+".trace"+ext, chrome)
}

package main

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"gator"
	"gator/internal/report"
)

// config is one benchmark invocation.
type config struct {
	workload string
	seed     int64
	// window is how long the untraced window measures; it ends at the first
	// whole pass (batch) or round (serve) after it elapses, and always runs
	// at least one.
	window time.Duration
	// trace selects the traced run, which reports per-layer metrics instead
	// of end-to-end ones.
	trace bool
	// setupReps is how many times set-up runs; setup_s is their median.
	setupReps int
	// tracedPasses is how many passes a traced run makes over the inputs,
	// running each input untraced and then traced.
	tracedPasses int
}

// opKind classifies one measured operation.
type opKind int

const (
	opBatch  opKind = iota // Load → Analyze → CheckReport → SARIF through package gator
	opTraced               // the same analysis, called layer by layer under tracing
	opCold                 // POST /v1/analyze of an input no cache has seen
	opRepeat               // a byte-identical resend of an earlier cold request
	opPatch                // PATCH of a warm session
)

func (k opKind) String() string {
	return [...]string{"batch", "traced", "cold", "repeat", "patch"}[k]
}

// refKey names the reference output an operation must reproduce: the
// SARIF report of inputs[input], or for a patch (input -1) the tuples
// report of the session app after edit variant.
type refKey struct {
	input   int
	variant int
}

// sample is one measured operation.
type sample struct {
	kind  opKind
	ref   refKey
	start time.Time
	lat   time.Duration
	sum   [sha256.Size]byte
	err   error
	// round is the window round the operation ran in: the batch operation's
	// own index, or the serve round (see window).
	round int
	// client is the serve client that sent the request (0 in process).
	client int
	// retained and retracted are a patch's incremental statistics.
	retained, retracted int
}

// state is a set-up workload, ready to measure.
type state struct {
	cfg    config
	w      workload
	inputs []input
	// rng orders batch passes.
	rng *rand.Rand
	// rig serves the serve workload; nil for batch workloads.
	rig *rig
	cal *calibration
}

func (st *state) close() {
	if st.rig != nil {
		st.rig.stop()
	}
}

// setUp builds the workload cfg.setupReps times and keeps the last one.
// Each build generates the inputs, starts the daemon and opens the
// sessions (serve), and makes one untimed warm-up pass; the returned
// set-up time is the median over the builds.
func setUp(cfg config, w workload) (*state, float64, error) {
	var times []float64
	var st *state
	cal := newCalibration()
	for rep := 0; rep < max(1, cfg.setupReps); rep++ {
		if st != nil {
			st.close()
		}
		start := time.Now()
		st = &state{cfg: cfg, w: w, inputs: w.inputs(cfg.seed), rng: rand.New(rand.NewSource(cfg.seed)), cal: cal}
		var err error
		if w.serve {
			st.rig, err = startRig(st.inputs, cfg.seed)
		} else {
			for _, in := range st.inputs {
				if _, err = analyzeOp(in); err != nil {
					break
				}
			}
		}
		if err != nil {
			st.close()
			return nil, 0, fmt.Errorf("set-up: %w", err)
		}
		times = append(times, time.Since(start).Seconds())
	}
	return st, median(times), nil
}

// analyzeOp is one batch operation: what `gator -sarif` does for one app.
func analyzeOp(in input) ([]byte, error) {
	app, err := gator.Load(in.Sources, in.Layouts)
	if err != nil {
		return nil, err
	}
	rep, err := app.Analyze(gator.Options{}).CheckReport()
	if err != nil {
		return nil, err
	}
	return rep.SARIF()
}

// measureOp runs one batch operation on inputs[i] and records it.
func (st *state) measureOp(i int) sample {
	start := time.Now()
	out, err := analyzeOp(st.inputs[i])
	return sample{kind: opBatch, ref: refKey{input: i}, start: start, lat: time.Since(start), sum: sha256.Sum256(out), err: err}
}

// window is what a measured window recorded. It runs in rounds: a round
// is one batch operation, or one serve round in which every client runs
// roundCycles mix cycles. perRound calibration units run alone before each
// round, and no round's time includes them.
type window struct {
	samples  []sample
	busy     []time.Duration // each round's time
	cal      []float64       // calibration units in ms, perRound before each round
	perRound int
	alloc    uint64 // heap allocated inside the rounds
}

// batchWindow runs whole passes over the inputs, each in a freshly seeded
// order, until the window has elapsed. Ending on a pass boundary gives
// every input exactly the same op count.
func (st *state) batchWindow() window {
	w := window{perRound: calThreads}
	deadline := time.Now().Add(st.cfg.window)
	for pass := 0; pass == 0 || time.Now().Before(deadline); pass++ {
		for _, i := range st.rng.Perm(len(st.inputs)) {
			w.cal = st.cal.measure(1, w.cal)
			a0 := heapAllocs()
			s := st.measureOp(i)
			w.alloc += heapAllocs() - a0
			s.round = len(w.busy)
			w.busy = append(w.busy, s.lat)
			w.samples = append(w.samples, s)
		}
	}
	return w
}

// timeMetrics computes the time metrics of a window whose round r runs at
// scale[r] times its measured time: throughput over the rounds' summed
// time and the pooled latency percentiles.
func timeMetrics(w window, failed int, scale []float64) map[string]float64 {
	lat := make([]float64, len(w.samples))
	for i, s := range w.samples {
		lat[i] = ms(s.lat) * scale[s.round]
	}
	sort.Float64s(lat)
	busy := 0.0
	for r, d := range w.busy {
		busy += d.Seconds() * scale[r]
	}
	return map[string]float64{
		"ops_per_s":      float64(len(w.samples)-failed) / busy,
		"latency_ms_p50": percentile(lat, 0.50),
		"latency_ms_p90": percentile(lat, 0.90),
	}
}

// measureWindow runs the untraced window and computes the end-to-end
// metrics other than setup_s: the time metrics at the reference speed,
// and unscaled beside them.
func (st *state) measureWindow() (*result, error) {
	var w window
	if st.rig != nil {
		w = st.rig.runWindow(st.cfg.window, st.cal)
	} else {
		w = st.batchWindow()
	}
	res := &result{samples: w.samples}
	st.verify(res)
	scale := scales(w.cal, len(w.busy), func(r int) int { return r*w.perRound + w.perRound/2 })
	ones := make([]float64, len(w.busy))
	for i := range ones {
		ones[i] = 1
	}
	res.metrics = timeMetrics(w, res.failed, scale)
	res.unscaled = timeMetrics(w, res.failed, ones)
	res.calibrationMs = median(w.cal)
	res.metrics["alloc_mb_per_op"] = float64(w.alloc) / 1e6 / float64(len(w.samples))
	res.rows = st.rows(w.samples, nil)
	if st.rig == nil {
		for _, r := range res.rows {
			if r.Ops != res.rows[0].Ops {
				return nil, fmt.Errorf("inputs ended the window with unequal op counts (%s %d, %s %d): the window must end on a pass boundary",
					res.rows[0].Input, res.rows[0].Ops, r.Input, r.Ops)
			}
		}
	}
	return res, nil
}

// reference renders the output refKey k names from a fresh load solved by
// the reference solver, and checks that solution against the concrete
// interpreter's observations.
func (st *state) reference(k refKey) ([sha256.Size]byte, error) {
	in, kind := input{}, "sarif"
	if k.input >= 0 {
		in = st.inputs[k.input]
	} else {
		p, err := newPatchApp()
		if err != nil {
			return [sha256.Size]byte{}, err
		}
		in = input{Name: fmt.Sprintf("%s/edit%d", p.Name, k.variant), Sources: p.edited(k.variant), Layouts: p.Layouts}
		kind = "tuples"
	}
	app, err := gator.Load(in.Sources, in.Layouts)
	if err != nil {
		return [sha256.Size]byte{}, fmt.Errorf("reference %s: %w", in.Name, err)
	}
	res := app.Analyze(gator.Options{ReferenceSolver: true})
	var out, errw bytes.Buffer
	if code := report.Render(&out, &errw, "app", res, report.Request{Report: kind, Seed: 1}); code > 1 || errw.Len() > 0 {
		return [sha256.Size]byte{}, fmt.Errorf("reference %s: exit %d: %s", in.Name, code, errw.String())
	}
	if rep := res.Explore(st.cfg.seed); !rep.Sound {
		return [sha256.Size]byte{}, fmt.Errorf("reference %s: unsound against the interpreter: %v", in.Name, rep.Violations)
	}
	return sha256.Sum256(out.Bytes()), nil
}

// verify checks every sample's output against its reference, computing
// each distinct reference once, and counts the failures into res. An
// operation fails when it errored (including non-2xx responses and patches
// off the warm path) or its output differs from the reference.
func (st *state) verify(res *result) {
	type ref struct {
		sum [sha256.Size]byte
		err error
	}
	refs := map[refKey]ref{}
	for _, s := range res.samples {
		res.attempted++
		err := s.err
		if err == nil {
			r, ok := refs[s.ref]
			if !ok {
				r.sum, r.err = st.reference(s.ref)
				refs[s.ref] = r
			}
			switch {
			case r.err != nil:
				err = r.err
			case s.sum != r.sum:
				err = errors.New("output differs from the reference")
			}
		}
		if err != nil {
			res.failed++
			if len(res.failures) < 10 {
				res.failures = append(res.failures, fmt.Sprintf("%s: %v", st.describe(s), err))
			}
		}
	}
}

// describe names a sample's operation and input.
func (st *state) describe(s sample) string {
	if s.ref.input < 0 {
		return fmt.Sprintf("%s/edit%d", s.kind, s.ref.variant)
	}
	return s.kind.String() + "/" + st.inputs[s.ref.input].Name
}

// rows groups samples by operation and input: one row each with its op
// count, median latency and, for traced operations, the median self time
// of each layer (self maps a sample index to its per-layer self times).
func (st *state) rows(samples []sample, self map[int]map[string]float64) []row {
	type group struct {
		lat  []float64
		self map[string][]float64
	}
	groups := map[string]*group{}
	for i, s := range samples {
		name := st.describe(s)
		g := groups[name]
		if g == nil {
			g = &group{self: map[string][]float64{}}
			groups[name] = g
		}
		g.lat = append(g.lat, ms(s.lat))
		for layer, v := range self[i] {
			g.self[layer] = append(g.self[layer], v)
		}
	}
	var out []row
	for _, name := range sortedKeys(groups) {
		g := groups[name]
		r := row{Input: name, Ops: len(g.lat), MedianMs: median(g.lat)}
		if len(g.self) > 0 {
			r.SelfMs = map[string]float64{}
			for layer, vs := range g.self {
				r.SelfMs[layer] = median(vs)
			}
		}
		out = append(out, r)
	}
	return out
}

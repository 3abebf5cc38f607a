package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"maps"
	"os"
	"strings"
	"time"

	"gator/internal/alite"
	"gator/internal/analysis"
	"gator/internal/core"
	"gator/internal/ir"
	"gator/internal/layout"
	"gator/internal/metrics"
	"gator/internal/trace"
)

// span is one timed interval of a traced operation: a benchmark-side call
// into a layer, or a phase the program reports through package trace.
type span struct {
	Name string
	// Op identifies the operation; all spans of one op share it.
	Op int
	// Parent is the index of the enclosing span, -1 for an op's root.
	Parent     int
	Start, End time.Duration // since the log's origin
	// Alloc is the heap allocation inside a benchmark-side span.
	Alloc uint64
}

func (s span) dur() time.Duration { return s.End - s.Start }

// opCounts are the work counts of one traced operation.
type opCounts struct {
	srcBytes, methods, nodes, flowEdges  int
	iterations, worklistSum, ruleFirings int64
	dataflowSolves, dataflowVisits       int64
	findings, sarifBytes                 int
}

// spanLog keeps the spans of a traced run in memory until it ends.
type spanLog struct {
	origin time.Time
	spans  []span
	counts []opCounts // by op id
}

func newSpanLog() *spanLog { return &spanLog{origin: time.Now()} }

func (l *spanLog) now() time.Duration { return time.Since(l.origin) }

// call runs f inside a span and records its duration and allocation.
func (l *spanLog) call(name string, op, parent int, f func()) int {
	i := len(l.spans)
	l.spans = append(l.spans, span{Name: name, Op: op, Parent: parent})
	a0 := heapAllocs()
	l.spans[i].Start = l.now()
	f()
	l.spans[i].End = l.now()
	l.spans[i].Alloc = heapAllocs() - a0
	return i
}

// tracer returns a program tracer whose event timestamps share the log's
// clock, collecting into sink.
func (l *spanLog) tracer(sink *trace.Collect) *trace.Tracer {
	return trace.New(sink, trace.WithClock(l.now))
}

// fold turns the program's events from one call into child spans of
// parent and adds their counts to c: phase pairs become spans, iteration,
// rule and dataflow events become counts.
func (l *spanLog) fold(events []trace.Event, op, parent int, c *opCounts) {
	open := map[string]time.Duration{}
	for _, ev := range events {
		switch ev.Kind {
		case trace.KindPhaseBegin:
			open[ev.Name] = ev.TS
		case trace.KindPhaseEnd:
			l.spans = append(l.spans, span{Name: ev.Name, Op: op, Parent: parent, Start: open[ev.Name], End: ev.TS})
		case trace.KindIteration:
			c.iterations++
			c.worklistSum += ev.N
		case trace.KindRule:
			c.ruleFirings += ev.N
		case trace.KindDataflow:
			c.dataflowSolves++
			c.dataflowVisits += ev.N
		}
	}
}

// tracedOp runs the batch operation on in layer by layer, each call inside
// a span, and returns the SARIF report.
func (l *spanLog) tracedOp(in input) (out []byte, op int, err error) {
	op = len(l.counts)
	l.counts = append(l.counts, opCounts{srcBytes: in.sourceBytes()})
	c := &l.counts[op]
	l.call("op", op, -1, func() {
		root := len(l.spans) - 1
		var files []*alite.File
		for _, name := range sortedKeys(in.Sources) {
			var f *alite.File
			l.call("alite.Parse", op, root, func() { f, err = alite.Parse(name, in.Sources[name]) })
			if err != nil {
				return
			}
			files = append(files, f)
		}
		layouts := map[string]*layout.Layout{}
		for _, name := range sortedKeys(in.Layouts) {
			l.call("layout.Parse", op, root, func() { layouts[name], err = layout.Parse(name, in.Layouts[name]) })
			if err != nil {
				return
			}
		}
		var prog *ir.Program
		l.call("ir.Build", op, root, func() { prog, err = ir.Build(files, layouts) })
		if err != nil {
			return
		}
		for _, cls := range prog.AppClasses() {
			c.methods += len(cls.Methods)
		}

		var res *core.Result
		sink := &trace.Collect{}
		scope := l.tracer(sink).Scope(in.Name, 0)
		coreSpan := l.call("core.Analyze", op, root, func() {
			res = core.Analyze(prog, core.Options{Trace: scope})
		})
		l.fold(sink.Events(), op, coreSpan, c)
		c.nodes, c.flowEdges = len(res.Graph.Nodes()), res.Graph.NumFlowEdges()

		var rep *analysis.Report
		sink = &trace.Collect{}
		scope = l.tracer(sink).Scope(in.Name, 0)
		checksSpan := l.call("analysis.Run", op, root, func() {
			rep, err = analysis.Run("app", res, analysis.Options{Sources: in.Sources, Trace: scope})
		})
		if err != nil {
			return
		}
		l.fold(sink.Events(), op, checksSpan, c)
		c.findings = len(rep.Findings)

		l.call("analysis.SARIF", op, root, func() { out, err = analysis.SARIF(rep) })
		c.sarifBytes = len(out)
	})
	return out, op, err
}

// selfTimes returns each op's self time per layer, in ms: a span's
// duration minus the part of it its child spans cover.
func (l *spanLog) selfTimes() []map[string]float64 {
	child := make([]time.Duration, len(l.spans))
	for _, s := range l.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.dur()
		}
	}
	out := make([]map[string]float64, len(l.counts))
	for i := range out {
		out[i] = map[string]float64{}
	}
	for i, s := range l.spans {
		out[s.Op][s.Name] += ms(s.dur() - child[i])
	}
	return out
}

// layerMetrics computes the per-layer metrics of the spans' layers and
// the trace's coverage: per-op means over every traced op.
func (l *spanLog) layerMetrics() map[string]float64 {
	dur := map[string]time.Duration{}
	alloc := map[string]uint64{}
	var rootDur, covered time.Duration
	for _, s := range l.spans {
		dur[s.Name] += s.dur()
		alloc[s.Name] += s.Alloc
		if s.Parent < 0 {
			rootDur += s.dur()
		} else if l.spans[s.Parent].Parent < 0 {
			covered += s.dur()
		}
	}
	var sum opCounts
	for _, c := range l.counts {
		sum.srcBytes += c.srcBytes
		sum.methods += c.methods
		sum.nodes += c.nodes
		sum.flowEdges += c.flowEdges
		sum.iterations += c.iterations
		sum.worklistSum += c.worklistSum
		sum.ruleFirings += c.ruleFirings
		sum.dataflowSolves += c.dataflowSolves
		sum.dataflowVisits += c.dataflowVisits
		sum.findings += c.findings
		sum.sarifBytes += c.sarifBytes
	}
	n := float64(len(l.counts))
	perOp := func(x float64) float64 { return x / n }
	msOf := func(name string) float64 { return perOp(ms(dur[name])) }
	mbOf := func(name string) float64 { return perOp(float64(alloc[name]) / 1e6) }
	m := map[string]float64{
		"alite.parse_ms":    msOf("alite.Parse"),
		"alite.mb_per_s":    float64(sum.srcBytes) / 1e6 / dur["alite.Parse"].Seconds(),
		"alite.alloc_mb":    mbOf("alite.Parse"),
		"layout.parse_ms":   msOf("layout.Parse"),
		"layout.alloc_mb":   mbOf("layout.Parse"),
		"ir.build_ms":       msOf("ir.Build"),
		"ir.alloc_mb":       mbOf("ir.Build"),
		"ir.methods":        perOp(float64(sum.methods)),
		"core.build_ms":     msOf("build"),
		"core.nodes":        perOp(float64(sum.nodes)),
		"core.flow_edges":   perOp(float64(sum.flowEdges)),
		"core.solve_ms":     msOf("solve"),
		"core.iterations":   perOp(float64(sum.iterations)),
		"core.worklist_sum": perOp(float64(sum.worklistSum)),
		"core.rule_firings": perOp(float64(sum.ruleFirings)),
		"core.alloc_mb":     mbOf("core.Analyze"),
		"checks.run_ms":     msOf("analysis.Run"),
		"checks.alloc_mb":   mbOf("analysis.Run"),
		"checks.findings":   perOp(float64(sum.findings)),
		"dataflow.solves":   perOp(float64(sum.dataflowSolves)),
		"dataflow.visits":   perOp(float64(sum.dataflowVisits)),
		"report.sarif_ms":   msOf("analysis.SARIF"),
		"report.bytes":      perOp(float64(sum.sarifBytes)),
		"trace.coverage":    float64(covered) / float64(rootDur),
	}
	for name := range dur {
		if id, ok := strings.CutPrefix(name, "check:"); ok {
			m["checks.pass."+id+"_ms"] = msOf(name)
		}
	}
	return m
}

// tracedRun makes cfg.tracedPasses passes over the inputs in a seeded
// order, running each input untraced and then traced, so the pair sees the
// same machine state. On the serve workload it then runs the serve mix for
// 5 s (at most the window) with /metrics.json snapshots around it. Batch
// workloads send nothing to a daemon, so they report the serve-only
// metrics as 0 and list them as not applicable.
func (st *state) tracedRun() (*result, error) {
	l := newSpanLog()
	var samples []sample
	var untraced, traced []float64
	tracedIdx := map[int]int{} // sample index → op id
	for pass := 0; pass < max(1, st.cfg.tracedPasses); pass++ {
		for _, i := range st.rng.Perm(len(st.inputs)) {
			s := st.measureOp(i)
			samples = append(samples, s)
			untraced = append(untraced, ms(s.lat))

			start := time.Now()
			out, op, err := l.tracedOp(st.inputs[i])
			s = sample{kind: opTraced, ref: refKey{input: i}, start: start, lat: time.Since(start), sum: sha256.Sum256(out), err: err}
			tracedIdx[len(samples)] = op
			samples = append(samples, s)
			traced = append(traced, ms(s.lat))
		}
	}

	res := &result{metrics: l.layerMetrics()}
	var mixSamples []sample
	if r := st.rig; r != nil {
		before, err := r.snapshot()
		if err != nil {
			return nil, err
		}
		mixSamples = r.mix(time.Now().Add(min(st.cfg.window, 5*time.Second)))
		after, err := r.snapshot()
		if err != nil {
			return nil, err
		}
		maps.Copy(res.metrics, serverMetrics(before, after, mixSamples))
	} else {
		// The names are what serverMetrics computes; with no mix its values
		// are meaningless, so they read 0.
		for _, k := range sortedKeys(serverMetrics(metrics.RegistrySnapshot{}, metrics.RegistrySnapshot{}, nil)) {
			res.metrics[k] = 0
			res.notApplicable = append(res.notApplicable, k)
		}
	}
	res.samples = append(samples, mixSamples...)
	res.metrics["trace.overhead_ratio"] = median(traced) / median(untraced)
	// Traced and untraced ops are both held to the same reference, so a
	// traced op that passes also equals its untraced output.
	st.verify(res)

	self := l.selfTimes()
	selfBySample := map[int]map[string]float64{}
	res.selfMs = map[string]float64{}
	for i, op := range tracedIdx {
		selfBySample[i] = self[op]
		for layer, v := range self[op] {
			res.selfMs[layer] += v / float64(len(self))
		}
	}
	if st.rig != nil {
		for _, k := range []string{"server.queue_ms", "server.parse_ms", "server.solve_ms", "server.render_ms", "client.overhead_ms"} {
			res.selfMs[k] = res.metrics[k]
		}
	}
	res.rows = st.rows(res.samples, selfBySample)
	res.chrome = chromeTrace(l, mixSamples, st.inputs)
	return res, nil
}

// chromeEvent is one Chrome trace_event record ("X" complete events).
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`  // µs
	Dur  float64        `json:"dur"` // µs
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// chromeTrace renders the traced run for chrome://tracing or Perfetto: the
// layered ops on thread 1, each serve client's requests on its own thread.
func chromeTrace(l *spanLog, mix []sample, inputs []input) []chromeEvent {
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	var out []chromeEvent
	for _, s := range l.spans {
		ev := chromeEvent{Name: s.Name, Ph: "X", TS: us(s.Start), Dur: us(s.dur()), PID: 1, TID: 1, Args: map[string]any{"op": s.Op}}
		if s.Parent < 0 {
			c := l.counts[s.Op]
			ev.Args["iterations"], ev.Args["findings"], ev.Args["sarif_bytes"] = c.iterations, c.findings, c.sarifBytes
		}
		out = append(out, ev)
	}
	for _, s := range mix {
		name := s.kind.String()
		if s.ref.input >= 0 {
			name += " " + inputs[s.ref.input].Name
		}
		out = append(out, chromeEvent{Name: name, Ph: "X", TS: us(s.start.Sub(l.origin)), Dur: us(s.lat), PID: 1, TID: s.client + 2})
	}
	return out
}

// writeChrome writes events as a Chrome trace_event JSON file.
func writeChrome(path string, events []chromeEvent) error {
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("write chrome trace: %w", err)
	}
	return nil
}

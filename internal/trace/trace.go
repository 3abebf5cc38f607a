// Package trace is the pipeline's instrumentation layer: the stage
// vocabulary and its timing hook (stage.go), typed events (phase
// boundaries, solver rule firings, per-iteration worklist sizes,
// dataflow-solver convergence) emitted through a Sink, with optional
// aggregation into a metrics.Registry, and exporters for JSON lines and the
// Chrome trace_event format (chrome.go).
//
// Overhead contract (see DESIGN.md, "Observability"): tracing disabled
// means a nil *Tracer or nil *Scope, and every method on them performs no
// allocation and emits nothing; Stage still times its stage into the
// caller's log. Instrumented code therefore calls
// scope.Stage(...)/scope.Rule(...) unconditionally; the disabled path is a
// nil check. The no-allocation guard in internal/core
// (TestTracingDisabledZeroAlloc, BenchmarkSolveTracingDisabled) keeps this
// contract honest.
package trace

import (
	"sync"
	"time"
)

// Registry aggregates counters and histogram observations alongside the
// event stream. *metrics.Registry implements it; trace declares only the
// interface so internal/metrics (which measures core results) can depend on
// internal/core while core depends on trace.
type Registry interface {
	// Add increments the named counter.
	Add(name string, n int64)
	// Observe records one histogram observation.
	Observe(name string, v int64)
}

// Kind classifies an Event. The values are part of the JSON export format;
// do not renumber or rename.
type Kind string

const (
	// KindPhaseBegin/KindPhaseEnd bracket one pipeline stage of one app;
	// Name is the stage (StageParse, StageLower, StageBuild,
	// StageRetract, StageRebuild, StageSolve, StageRender, or CheckPrefix
	// plus a pass id). Scope.Stage emits both.
	KindPhaseBegin Kind = "phase-begin"
	KindPhaseEnd   Kind = "phase-end"
	// KindIteration reports one outer fixpoint round; N is the worklist
	// size entering flow propagation.
	KindIteration Kind = "iteration"
	// KindRule reports inference-rule firings; Name is the operation-node
	// kind (the paper's rule name, e.g. "FindView2") and N the number of
	// operation nodes of that kind that changed the solution this round.
	KindRule Kind = "rule"
	// KindDataflow reports one dataflow-solver run to fixpoint; Name is
	// the method whose CFG was solved and N the block visits needed.
	KindDataflow Kind = "dataflow"
	// KindCounter is a free-form counter sample.
	KindCounter Kind = "counter"
	// KindCache reports one content-addressed cache probe; Name is the
	// cache ("parse", "result"), N is 1 for a hit and 0 for a miss.
	KindCache Kind = "cache"
)

// Event is one structured trace record.
type Event struct {
	Kind Kind `json:"kind"`
	// App labels the analyzed application; Worker is the batch worker that
	// produced the event (0 outside batch runs).
	App    string `json:"app,omitempty"`
	Worker int    `json:"worker"`
	// Name is the phase, rule, method, or counter name.
	Name string `json:"name,omitempty"`
	// N is the event payload: worklist size, firings, iterations, or a
	// counter value.
	N int64 `json:"n,omitempty"`
	// TS is the monotonic timestamp, relative to the tracer's start.
	// It marshals as integer nanoseconds.
	TS time.Duration `json:"tsNs"`
	// Trace is the W3C trace id of the request that drove this solve, when
	// the run is request-scoped (gatord sets it from the incoming or
	// generated traceparent). Empty for CLI and batch runs.
	Trace string `json:"trace,omitempty"`
}

// Sink receives emitted events. Implementations need not be goroutine-safe:
// the Tracer serializes Emit calls.
type Sink interface {
	Emit(Event)
}

// Clock supplies monotonic timestamps relative to an arbitrary origin. The
// default clock is wall time since New; tests inject StepClock for
// reproducible output.
type Clock func() time.Duration

// StepClock returns a synthetic clock that advances by step on every
// reading — monotonic, deterministic timestamps for golden tests.
func StepClock(step time.Duration) Clock {
	var now time.Duration
	return func() time.Duration {
		now += step
		return now
	}
}

// Tracer is the fan-in point for a run's events. A nil *Tracer is the
// disabled tracer: Scope returns nil and Emit does nothing.
type Tracer struct {
	mu    sync.Mutex
	sink  Sink
	clock Clock
	reg   Registry
}

// Option configures a Tracer.
type Option func(*Tracer)

// WithClock replaces the wall clock (for tests).
func WithClock(c Clock) Option { return func(t *Tracer) { t.clock = c } }

// WithRegistry attaches a counter/histogram registry: rule firings,
// worklist sizes, and dataflow iterations aggregate there in addition to
// streaming through the sink.
func WithRegistry(r Registry) Option { return func(t *Tracer) { t.reg = r } }

// New creates a tracer writing to sink.
func New(sink Sink, opts ...Option) *Tracer {
	t := &Tracer{sink: sink}
	for _, o := range opts {
		o(t)
	}
	if t.clock == nil {
		start := time.Now()
		t.clock = func() time.Duration { return time.Since(start) }
	}
	return t
}

// Enabled reports whether events are being recorded.
func (t *Tracer) Enabled() bool { return t != nil }

// Registry returns the attached registry (nil when absent or disabled).
func (t *Tracer) Registry() Registry {
	if t == nil {
		return nil
	}
	return t.reg
}

// Emit stamps and records one event. Safe for concurrent use.
func (t *Tracer) Emit(ev Event) {
	if t == nil {
		return
	}
	t.mu.Lock()
	ev.TS = t.clock()
	t.sink.Emit(ev)
	t.mu.Unlock()
}

// Scope binds events to one application and worker. A nil tracer yields a
// nil scope, on which every method is an allocation-free no-op — this is
// the handle threaded through the solver and checkers.
func (t *Tracer) Scope(app string, worker int) *Scope {
	if t == nil {
		return nil
	}
	return &Scope{t: t, app: app, worker: worker}
}

// RequestScope is Scope plus a trace id: every event the scope emits
// carries the id, tying solver internals to the request that triggered
// them (the id appears in exported JSON/Chrome traces and is what
// gatord's /v1/debug/traces endpoint is keyed by).
func (t *Tracer) RequestScope(app string, worker int, traceID string) *Scope {
	if t == nil {
		return nil
	}
	return &Scope{t: t, app: app, worker: worker, trace: traceID}
}

// Scope is a Tracer bound to one (app, worker) pair and, for
// request-scoped runs, a trace id.
type Scope struct {
	t      *Tracer
	app    string
	worker int
	trace  string
}

// Enabled reports whether the scope records events. Instrumented code uses
// it to skip argument preparation that would itself allocate.
func (s *Scope) Enabled() bool { return s != nil }

// TraceID returns the trace id the scope stamps on events ("" when the
// scope is nil or not request-bound).
func (s *Scope) TraceID() string {
	if s == nil {
		return ""
	}
	return s.trace
}

// emit stamps the scope's trace id and forwards to the tracer.
func (s *Scope) emit(ev Event) {
	ev.Trace = s.trace
	s.t.Emit(ev)
}

// Iteration reports one outer fixpoint round with its entry worklist size.
func (s *Scope) Iteration(round int, worklist int) {
	if s == nil {
		return
	}
	s.emit(Event{Kind: KindIteration, App: s.app, Worker: s.worker, Name: "worklist", N: int64(worklist)})
	if s.t.reg != nil {
		s.t.reg.Observe("solver/worklist", int64(worklist))
		s.t.reg.Add("solver/iterations", 1)
	}
}

// Rule reports fired inference-rule instances for one operation kind.
func (s *Scope) Rule(rule string, fired int64) {
	if s == nil || fired == 0 {
		return
	}
	s.emit(Event{Kind: KindRule, App: s.app, Worker: s.worker, Name: rule, N: fired})
	if s.t.reg != nil {
		s.t.reg.Add("rule/"+rule, fired)
	}
}

// Dataflow reports one CFG dataflow solve and its block-visit count.
func (s *Scope) Dataflow(method string, visits int64) {
	if s == nil {
		return
	}
	s.emit(Event{Kind: KindDataflow, App: s.app, Worker: s.worker, Name: method, N: visits})
	if s.t.reg != nil {
		s.t.reg.Observe("dataflow/visits", visits)
		s.t.reg.Add("dataflow/solves", 1)
	}
}

// Count emits a free-form counter sample and aggregates it.
func (s *Scope) Count(name string, n int64) {
	if s == nil {
		return
	}
	s.emit(Event{Kind: KindCounter, App: s.app, Worker: s.worker, Name: name, N: n})
	if s.t.reg != nil {
		s.t.reg.Add(name, n)
	}
}

// CacheProbe reports one content-addressed cache lookup (incremental
// re-analysis: parse cache, on-disk result store) and aggregates hit/miss
// counters as "cache/<name>/hits" and "cache/<name>/misses".
func (s *Scope) CacheProbe(name string, hit bool) {
	if s == nil {
		return
	}
	var n int64
	if hit {
		n = 1
	}
	s.emit(Event{Kind: KindCache, App: s.app, Worker: s.worker, Name: name, N: n})
	if s.t.reg != nil {
		if hit {
			s.t.reg.Add("cache/"+name+"/hits", 1)
		} else {
			s.t.reg.Add("cache/"+name+"/misses", 1)
		}
	}
}

// Collect is a Sink that buffers events in memory, for tests and for
// exporting a finished run (WriteJSON, Chrome).
type Collect struct {
	mu     sync.Mutex
	events []Event
}

// Emit appends one event.
func (c *Collect) Emit(ev Event) {
	c.mu.Lock()
	c.events = append(c.events, ev)
	c.mu.Unlock()
}

// Events returns a copy of the buffered events in emission order.
func (c *Collect) Events() []Event {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]Event(nil), c.events...)
}

// Len returns the number of buffered events.
func (c *Collect) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.events)
}

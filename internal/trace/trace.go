// Package trace is the pipeline's instrumentation layer: the stage
// vocabulary and its timing hook (stage.go), typed events (phase
// boundaries, solver rule firings, per-iteration worklist sizes,
// dataflow-solver convergence) emitted through a Sink, and an exporter for
// the Chrome trace_event format (chrome.go).
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
	// cache ("parse"), N is 1 for a hit and 0 for a miss.
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
}

// Option configures a Tracer.
type Option func(*Tracer)

// WithClock replaces the wall clock (for tests).
func WithClock(c Clock) Option { return func(t *Tracer) { t.clock = c } }

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

// Scope is a Tracer bound to one (app, worker) pair.
type Scope struct {
	t      *Tracer
	app    string
	worker int
}

// Enabled reports whether the scope records events. Instrumented code uses
// it to skip argument preparation that would itself allocate.
func (s *Scope) Enabled() bool { return s != nil }

// Iteration reports one outer fixpoint round with its entry worklist size.
func (s *Scope) Iteration(round int, worklist int) {
	if s == nil {
		return
	}
	s.t.Emit(Event{Kind: KindIteration, App: s.app, Worker: s.worker, Name: "worklist", N: int64(worklist)})
}

// Rule reports fired inference-rule instances for one operation kind.
func (s *Scope) Rule(rule string, fired int64) {
	if s == nil || fired == 0 {
		return
	}
	s.t.Emit(Event{Kind: KindRule, App: s.app, Worker: s.worker, Name: rule, N: fired})
}

// Dataflow reports one CFG dataflow solve and its block-visit count.
func (s *Scope) Dataflow(method string, visits int64) {
	if s == nil {
		return
	}
	s.t.Emit(Event{Kind: KindDataflow, App: s.app, Worker: s.worker, Name: method, N: visits})
}

// Count emits a free-form counter sample.
func (s *Scope) Count(name string, n int64) {
	if s == nil {
		return
	}
	s.t.Emit(Event{Kind: KindCounter, App: s.app, Worker: s.worker, Name: name, N: n})
}

// CacheProbe reports one content-addressed parse-cache lookup.
func (s *Scope) CacheProbe(name string, hit bool) {
	if s == nil {
		return
	}
	var n int64
	if hit {
		n = 1
	}
	s.t.Emit(Event{Kind: KindCache, App: s.app, Worker: s.worker, Name: name, N: n})
}

// Collect is a Sink that buffers events in memory, for tests and for
// exporting a finished run (Chrome).
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

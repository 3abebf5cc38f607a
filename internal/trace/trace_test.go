package trace

import (
	"bytes"
	"strings"
	"sync"
	"testing"
	"time"
)

// fakeRegistry implements Registry for tests; the production implementation
// (*metrics.Registry) is exercised in internal/metrics and internal/core —
// importing it here would close the core→trace→metrics→core cycle through
// the test binary.
type fakeRegistry struct {
	counters map[string]int64
	observed map[string][]int64
}

func newFakeRegistry() *fakeRegistry {
	return &fakeRegistry{counters: map[string]int64{}, observed: map[string][]int64{}}
}

func (r *fakeRegistry) Add(name string, n int64)     { r.counters[name] += n }
func (r *fakeRegistry) Observe(name string, v int64) { r.observed[name] = append(r.observed[name], v) }

func TestTracerEmitsScopedEvents(t *testing.T) {
	sink := &Collect{}
	reg := newFakeRegistry()
	tr := New(sink, WithClock(StepClock(time.Millisecond)), WithRegistry(reg))

	s := tr.Scope("notepad", 2)
	var log Log
	s.Stage(&log, StageSolve, func() {
		s.Iteration(1, 42)
		s.Rule("FindView2", 3)
		s.Rule("Inflate1", 0) // zero firings are dropped
		s.Dataflow("Main.onCreate()", 7)
		s.Count("custom", 5)
	})
	if len(log) != 1 || log[0].Stage != StageSolve || log[0].Wall <= 0 || log.Total() != log.Wall(StageSolve) {
		t.Errorf("stage log = %+v, want one timed solve", log)
	}

	evs := sink.Events()
	wantKinds := []Kind{KindPhaseBegin, KindIteration, KindRule, KindDataflow, KindCounter, KindPhaseEnd}
	if len(evs) != len(wantKinds) {
		t.Fatalf("got %d events, want %d: %+v", len(evs), len(wantKinds), evs)
	}
	var last time.Duration
	for i, ev := range evs {
		if ev.Kind != wantKinds[i] {
			t.Errorf("event %d kind = %s, want %s", i, ev.Kind, wantKinds[i])
		}
		if ev.App != "notepad" || ev.Worker != 2 {
			t.Errorf("event %d scope = (%s, %d)", i, ev.App, ev.Worker)
		}
		if ev.TS <= last {
			t.Errorf("event %d timestamp %v not monotonic after %v", i, ev.TS, last)
		}
		last = ev.TS
	}
	if evs[2].Name != "FindView2" || evs[2].N != 3 {
		t.Errorf("rule event = %+v", evs[2])
	}

	// Registry aggregation rode along.
	if got := reg.counters["rule/FindView2"]; got != 3 {
		t.Errorf("rule counter = %d", got)
	}
	if got := reg.counters["solver/iterations"]; got != 1 {
		t.Errorf("iterations counter = %d", got)
	}
	if got := reg.observed["solver/worklist"]; len(got) != 1 || got[0] != 42 {
		t.Errorf("worklist observations = %v", got)
	}
}

// TestDisabledTracingNoAlloc: every emission path on a nil tracer/scope is
// an allocation-free no-op, and the stage hook only appends to its
// pre-sized log — the package's overhead contract.
func TestDisabledTracingNoAlloc(t *testing.T) {
	var tr *Tracer
	s := tr.Scope("app", 0)
	if tr.Enabled() || s.Enabled() {
		t.Fatal("nil tracer/scope reports enabled")
	}
	log := make(Log, 0, 1)
	allocs := testing.AllocsPerRun(1000, func() {
		tr.Emit(Event{Kind: KindCounter})
		log = log[:0]
		s.Stage(&log, StageSolve, func() {
			s.Iteration(3, 100)
			s.Rule("FindView2", 5)
			s.Dataflow("m", 9)
			s.Count("x", 1)
		})
	})
	if allocs != 0 {
		t.Errorf("disabled tracing allocates %v allocs/op, want 0", allocs)
	}
}

func TestTracerConcurrentEmit(t *testing.T) {
	sink := &Collect{}
	tr := New(sink)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s := tr.Scope("app", w)
			for i := 0; i < 100; i++ {
				s.Iteration(i, i)
			}
		}(w)
	}
	wg.Wait()
	if sink.Len() != 800 {
		t.Errorf("events = %d, want 800", sink.Len())
	}
}

func TestWriteJSON(t *testing.T) {
	sink := &Collect{}
	tr := New(sink, WithClock(StepClock(time.Microsecond)))
	s := tr.Scope("a", 1)
	var log Log
	s.Stage(&log, StageParse, func() {})
	var b strings.Builder
	if err := WriteJSON(&b, sink.Events()); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("lines = %d:\n%s", len(lines), b.String())
	}
	want := `{"kind":"phase-begin","app":"a","worker":1,"name":"parse","tsNs":1000}`
	if lines[0] != want {
		t.Errorf("line 0 = %s\nwant     %s", lines[0], want)
	}
}

func TestRequestScopeStampsTraceID(t *testing.T) {
	var sink Collect
	tr := New(&sink, WithClock(StepClock(time.Microsecond)))
	sc := tr.RequestScope("app", 0, "0af7651916cd43dd8448eb211c80319c")
	if sc.TraceID() != "0af7651916cd43dd8448eb211c80319c" {
		t.Fatalf("TraceID = %q", sc.TraceID())
	}
	var log Log
	sc.Stage(&log, StageSolve, func() {
		sc.Iteration(1, 4)
		sc.Rule("FindView2", 2)
		sc.CacheProbe("parse", true)
	})
	events := sink.Events()
	if len(events) != 5 {
		t.Fatalf("%d events", len(events))
	}
	for _, ev := range events {
		if ev.Trace != "0af7651916cd43dd8448eb211c80319c" {
			t.Fatalf("event %+v lost the trace id", ev)
		}
	}

	// The id survives both exporters: JSON lines carry a trace field, and
	// the Chrome rendering accepts every kind (including cache probes).
	var buf bytes.Buffer
	if err := WriteJSON(&buf, events); err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(buf.String(), `"trace":"0af7651916cd43dd8448eb211c80319c"`); n != 5 {
		t.Fatalf("JSON export has %d trace fields, want 5:\n%s", n, buf.String())
	}
	chrome, err := Chrome(events)
	if err != nil {
		t.Fatalf("Chrome export: %v", err)
	}
	if !strings.Contains(string(chrome), "0af7651916cd43dd8448eb211c80319c") {
		t.Fatal("Chrome export dropped the trace id")
	}

	// Plain scopes stay trace-free so CLI output is unchanged.
	plain := tr.Scope("app", 0)
	if plain.TraceID() != "" {
		t.Fatal("plain scope has a trace id")
	}
	plain.Stage(&log, StageSolve, func() {})
	evs := sink.Events()
	if last := evs[len(evs)-1]; last.Trace != "" {
		t.Fatalf("plain scope stamped %q", last.Trace)
	}
	var nilScope *Scope
	if nilScope.TraceID() != "" {
		t.Fatal("nil scope trace id")
	}
}

package trace

import (
	"sync"
	"testing"
	"time"
)

func TestTracerEmitsScopedEvents(t *testing.T) {
	sink := &Collect{}
	tr := New(sink, WithClock(StepClock(time.Millisecond)))

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

package trace

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite the golden chrome trace file")

// goldenEvents builds a deterministic event stream through the public API
// with a synthetic monotonic clock: a two-worker batch, each app running
// parse then solve with an iteration and a rule firing. Two workers'
// phases interleave without nesting, so the phase events go through
// Tracer.Emit the way two concurrent Scope.Stage calls would deliver them.
func goldenEvents() []Event {
	sink := &Collect{}
	tr := New(sink, WithClock(StepClock(10*time.Microsecond)))
	a := tr.Scope("alpha", 0)
	b := tr.Scope("beta", 1)
	phase := func(kind Kind, app string, worker int, name string) {
		tr.Emit(Event{Kind: kind, App: app, Worker: worker, Name: name})
	}
	phase(KindPhaseBegin, "alpha", 0, StageParse)
	phase(KindPhaseEnd, "alpha", 0, StageParse)
	phase(KindPhaseBegin, "beta", 1, StageParse)
	phase(KindPhaseBegin, "alpha", 0, StageSolve)
	a.Iteration(1, 17)
	a.Rule("FindView2", 4)
	phase(KindPhaseEnd, "beta", 1, StageParse)
	phase(KindPhaseBegin, "beta", 1, StageSolve)
	a.Dataflow("Alpha.onCreate()", 6)
	phase(KindPhaseEnd, "alpha", 0, StageSolve)
	b.Iteration(1, 3)
	phase(KindPhaseEnd, "beta", 1, StageSolve)
	return sink.Events()
}

// TestChromeGolden locks the Chrome trace_event export byte-for-byte:
// stable field ordering and the synthetic timestamps of the fake clock.
// Regenerate with `go test ./internal/trace -run TestChromeGolden -update`.
func TestChromeGolden(t *testing.T) {
	got, err := Chrome(goldenEvents())
	if err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "chrome_golden.json")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden file (run with -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("chrome export drifted from golden:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// TestChromeDeterministic: two exports of the same logical run are
// byte-identical.
func TestChromeDeterministic(t *testing.T) {
	a, err := Chrome(goldenEvents())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Chrome(goldenEvents())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Error("chrome export is not deterministic")
	}
}

// TestChromeShape: the export is valid trace_event JSON — an object with a
// traceEvents array whose spans pair B/E phases per (pid, tid) and whose
// timestamps are monotonic per thread.
func TestChromeShape(t *testing.T) {
	data, err := Chrome(goldenEvents())
	if err != nil {
		t.Fatal(err)
	}
	var log struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
			TS   int64  `json:"ts"`
			PID  int    `json:"pid"`
			TID  int    `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &log); err != nil {
		t.Fatalf("export is not JSON: %v", err)
	}
	depth := map[int]int{}
	lastTS := map[int]int64{}
	for _, ev := range log.TraceEvents {
		if ev.Ph == "M" {
			continue
		}
		if ev.TS < lastTS[ev.TID] {
			t.Errorf("tid %d: ts %d goes backwards (last %d)", ev.TID, ev.TS, lastTS[ev.TID])
		}
		lastTS[ev.TID] = ev.TS
		switch ev.Ph {
		case "B":
			depth[ev.TID]++
		case "E":
			depth[ev.TID]--
			if depth[ev.TID] < 0 {
				t.Errorf("tid %d: unbalanced E event %q", ev.TID, ev.Name)
			}
		}
	}
	for tid, d := range depth {
		if d != 0 {
			t.Errorf("tid %d: %d unclosed phase spans", tid, d)
		}
	}
}

// TestChromeCacheProbe: the Chrome rendering accepts a parse-cache probe,
// the one event kind the golden stream does not emit, as a thread-scoped
// instant carrying the hit flag.
func TestChromeCacheProbe(t *testing.T) {
	sink := &Collect{}
	sc := New(sink, WithClock(StepClock(time.Microsecond))).Scope("app", 0)
	var log Log
	sc.Stage(&log, StageParse, func() {
		sc.CacheProbe("parse", true)
		sc.CacheProbe("parse", false)
	})
	data, err := Chrome(sink.Events())
	if err != nil {
		t.Fatalf("Chrome export: %v", err)
	}
	if n := strings.Count(string(data), `"name": "cache parse"`); n != 2 {
		t.Fatalf("Chrome export has %d cache probes, want 2:\n%s", n, data)
	}
	if !strings.Contains(string(data), `"ph": "i"`) || !strings.Contains(string(data), `"n": 1`) {
		t.Fatalf("cache probe is not an instant with its hit flag:\n%s", data)
	}
}

package trace

// The exporter for a finished event stream: the Chrome trace_event format,
// loadable in chrome://tracing and Perfetto. The rendering is deterministic
// for a deterministic event stream: fields marshal in struct order and no
// wall clock is consulted — timestamps come from the events themselves, so
// a fake clock yields byte-stable golden output.

import (
	"encoding/json"
	"fmt"
	"io"
)

// chromeEvent is one trace_event record. Field order is the export format;
// encoding/json preserves it.
type chromeEvent struct {
	Name string      `json:"name"`
	Ph   string      `json:"ph"`
	TS   int64       `json:"ts"` // microseconds
	PID  int         `json:"pid"`
	TID  int         `json:"tid"`
	S    string      `json:"s,omitempty"` // instant-event scope
	Args *chromeArgs `json:"args,omitempty"`
}

type chromeArgs struct {
	App  string `json:"app,omitempty"`
	N    *int64 `json:"n,omitempty"`
	Name string `json:"name,omitempty"`
}

type chromeLog struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// Chrome renders events in the Chrome trace_event JSON format. Batch
// workers map to threads (tid = worker+1), so a parallel run renders as one
// lane per worker with per-app phase spans; iteration/rule/dataflow events
// appear as counter series and instants inside the owning lane.
func Chrome(events []Event) ([]byte, error) {
	log := chromeLog{TraceEvents: []chromeEvent{}, DisplayTimeUnit: "ms"}
	log.TraceEvents = append(log.TraceEvents,
		chromeEvent{Name: "process_name", Ph: "M", PID: 1, TID: 0,
			Args: &chromeArgs{Name: "gator"}})
	for _, ev := range events {
		ce := chromeEvent{
			TS:  ev.TS.Microseconds(),
			PID: 1,
			TID: ev.Worker + 1,
		}
		switch ev.Kind {
		case KindPhaseBegin, KindPhaseEnd:
			ce.Name = ev.Name
			if ev.App != "" {
				ce.Name = ev.App + ":" + ev.Name
			}
			if ev.Kind == KindPhaseBegin {
				ce.Ph = "B"
			} else {
				ce.Ph = "E"
			}
			ce.Args = &chromeArgs{App: ev.App}
		case KindIteration:
			ce.Name = "worklist"
			ce.Ph = "C"
			n := ev.N
			ce.Args = &chromeArgs{App: ev.App, N: &n}
		case KindRule:
			ce.Name = "rule " + ev.Name
			ce.Ph = "C"
			n := ev.N
			ce.Args = &chromeArgs{App: ev.App, N: &n}
		case KindDataflow:
			ce.Name = "dataflow " + ev.Name
			ce.Ph = "i"
			ce.S = "t"
			n := ev.N
			ce.Args = &chromeArgs{App: ev.App, N: &n}
		case KindCounter:
			ce.Name = ev.Name
			ce.Ph = "C"
			n := ev.N
			ce.Args = &chromeArgs{App: ev.App, N: &n}
		case KindCache:
			ce.Name = "cache " + ev.Name
			ce.Ph = "i"
			ce.S = "t"
			n := ev.N
			ce.Args = &chromeArgs{App: ev.App, N: &n}
		default:
			return nil, fmt.Errorf("trace: unknown event kind %q", ev.Kind)
		}
		log.TraceEvents = append(log.TraceEvents, ce)
	}
	out, err := json.MarshalIndent(log, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}

// WriteChrome writes the Chrome trace_event rendering of events.
func WriteChrome(w io.Writer, events []Event) error {
	data, err := Chrome(events)
	if err != nil {
		return err
	}
	_, err = w.Write(data)
	return err
}

package server

// Request-scoped telemetry for the daemon: W3C trace-context propagation,
// per-request structured logs, labeled request/duration metrics, and
// sampled capture of solver traces into a bounded in-memory ring served at
// /v1/debug/traces/{id}. The middleware owns the request's span: an
// incoming traceparent yields a child span (same trace id, fresh span id),
// anything else yields a new root span, and either way the span rides the
// request context through admission, the job worker, and the solver — so
// an HTTP access log line, a Prometheus series, and a solver trace event
// can all be joined on one trace id. See DESIGN.md, "Observability".

import (
	"fmt"
	"net/http"
	"runtime/debug"
	"strconv"
	"strings"
	"time"

	"log/slog"

	"gator/internal/metrics"
	"gator/internal/telemetry"
	"gator/internal/trace"
)

// TraceparentHeader is the W3C trace-context header the daemon reads and
// echoes.
const TraceparentHeader = "traceparent"

// routeLabel maps a request path onto the bounded route label set (the
// Go 1.22 mux does not expose the matched pattern, so the normalization is
// by hand) and extracts the session id for paths that carry one. Unknown
// paths collapse to "other" so label cardinality stays fixed no matter
// what clients probe.
func routeLabel(p string) (route, sessionID string) {
	switch p {
	case "/healthz", "/readyz", "/metrics", "/metrics.json",
		"/v1/analyze", "/v1/sessions":
		return p, ""
	}
	switch {
	case strings.HasPrefix(p, "/v1/sessions/"):
		return "/v1/sessions/{id}", p[len("/v1/sessions/"):]
	case strings.HasPrefix(p, "/v1/debug/traces/"):
		return "/v1/debug/traces/{id}", ""
	case strings.HasPrefix(p, "/debug/pprof/"):
		return "/debug/pprof", ""
	}
	return "other", ""
}

// statusWriter records the response status and size for metrics and logs.
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(p)
	w.bytes += int64(n)
	return n, err
}

// withTelemetry is the daemon's outermost middleware. Per request it:
// continues or starts a W3C trace (child span of an incoming traceparent,
// fresh root otherwise), echoes the request's own span as the traceparent
// response header, threads the span through the request context, counts
// http_requests_total{route,status}, observes
// http_request_duration_us{route}, emits one structured log line, and
// converts handler panics into logged 500s instead of lost connections
// (panics inside analysis jobs are already isolated by the job runner;
// this catches the serving layer itself).
func (s *Server) withTelemetry(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		span := telemetry.NewSpan()
		if parent, err := telemetry.ParseTraceparent(r.Header.Get(TraceparentHeader)); err == nil {
			span = parent.ChildSpan()
		}
		r = r.WithContext(telemetry.WithSpan(r.Context(), span))
		w.Header().Set(TraceparentHeader, span.Traceparent())

		sw := &statusWriter{ResponseWriter: w}
		route, sessionID := routeLabel(r.URL.Path)
		start := time.Now()
		defer func() {
			elapsed := time.Since(start)
			if p := recover(); p != nil {
				s.reg.Add("server.http.panics", 1)
				if s.log != nil {
					s.log.Error("panic serving request",
						slog.String("method", r.Method),
						slog.String("route", route),
						slog.String("traceId", span.TraceIDString()),
						slog.String("spanId", span.SpanIDString()),
						slog.String("panic", fmt.Sprint(p)),
						slog.String("stack", string(debug.Stack())))
				}
				if sw.status == 0 {
					writeError(sw, http.StatusInternalServerError, "internal error")
				}
			}
			if sw.status == 0 {
				sw.status = http.StatusOK
			}
			// The metrics endpoints do not observe themselves: counting a
			// scrape would make the next scrape differ, and both the JSON
			// determinism contract and the byte-identical-idle-scrapes
			// property depend on reads being free of side effects.
			if route != "/metrics" && route != "/metrics.json" {
				s.reg.Add(metrics.LabelName("http_requests_total",
					"route", route, "status", strconv.Itoa(sw.status)), 1)
				s.reg.Observe(metrics.LabelName("http_request_duration_us", "route", route),
					elapsed.Microseconds())
			}
			if s.log != nil {
				level := slog.LevelInfo
				switch {
				case sw.status >= 500:
					level = slog.LevelError
				case sw.status >= 400:
					level = slog.LevelWarn
				}
				attrs := []slog.Attr{
					slog.String("method", r.Method),
					slog.String("route", route),
					slog.String("path", r.URL.Path),
					slog.Int("status", sw.status),
					slog.Int64("bytes", sw.bytes),
					slog.Float64("durMs", float64(elapsed)/float64(time.Millisecond)),
					// The server span id doubles as the request id: it is
					// fresh per request even when the client pins the trace.
					slog.String("requestId", span.SpanIDString()),
					slog.String("traceId", span.TraceIDString()),
					slog.String("spanId", span.SpanIDString()),
				}
				if sessionID != "" {
					attrs = append(attrs, slog.String("sessionId", sessionID))
				}
				s.log.LogAttrs(r.Context(), level, "request", attrs...)
			}
		}()
		h.ServeHTTP(sw, r)
	})
}

// rejectRequest records one admission rejection: a labeled counter for the
// scrape and a warn line carrying the trace id for the log stream.
func (s *Server) rejectRequest(r *http.Request, reason string) {
	if !s.obs {
		return
	}
	s.reg.Add(metrics.LabelName("requests_rejected_total", "reason", reason), 1)
	if s.log != nil {
		route, _ := routeLabel(r.URL.Path)
		s.log.Warn("request rejected",
			slog.String("reason", reason),
			slog.String("method", r.Method),
			slog.String("route", route),
			slog.String("traceId", telemetry.TraceIDFrom(r.Context())))
	}
}

// observeStages records a stage log in the stage_duration_us histogram
// family, one series per stage label (the names are internal/trace's, so
// the set stays bounded); no-op when telemetry is off.
func (s *Server) observeStages(stages trace.Log) {
	if !s.obs {
		return
	}
	for _, t := range stages {
		s.reg.Observe(stageMetric(t.Stage), t.Wall.Microseconds())
	}
}

// stageMetric names one stage's stage_duration_us series.
func stageMetric(stage string) string { return metrics.LabelName("stage_duration_us", "stage", stage) }

// ---- solver trace capture ----

// forceTrace reports whether the request explicitly asked for solver trace
// capture (?trace=1).
func (s *Server) forceTrace(r *http.Request) bool {
	return s.obs && r.URL.Query().Get("trace") == "1"
}

// sampleHit implements head-based sampling: with -trace-sample=N, every
// Nth analysis-bearing request captures its solver trace.
func (s *Server) sampleHit() bool {
	if !s.obs || s.cfg.TraceSample <= 0 {
		return false
	}
	return s.sampleSeq.Add(1)%int64(s.cfg.TraceSample) == 0
}

// captureScope starts solver trace capture for one request when sampling
// or ?trace=1 selects it: the returned scope goes into Options.Trace, and
// the sink holds the events for storeTrace. A nil sink means "not
// capturing".
func (s *Server) captureScope(r *http.Request, app string) (*trace.Collect, *trace.Scope, string) {
	if !(s.forceTrace(r) || s.sampleHit()) {
		return nil, nil, ""
	}
	traceID := telemetry.TraceIDFrom(r.Context())
	if traceID == "" {
		// Telemetry middleware disabled: nothing to key the capture by.
		return nil, nil, ""
	}
	sink := &trace.Collect{}
	return sink, trace.New(sink).RequestScope(app, 0, traceID), traceID
}

// storeTrace renders captured events as JSON lines and retains them in the
// bounded ring, keyed by trace id (a later capture under the same trace id
// replaces the earlier one).
func (s *Server) storeTrace(traceID string, sink *trace.Collect) {
	if sink == nil || traceID == "" {
		return
	}
	var buf strings.Builder
	if err := trace.WriteJSON(&buf, sink.Events()); err != nil {
		return
	}
	s.traces.Put(traceID, []byte(buf.String()))
	s.reg.Add("server.traces.captured", 1)
}

// handleDebugTrace serves one captured solver trace as newline-delimited
// JSON events (the same rendering `gator -trace` writes), 404 when the id
// was never captured or already aged out of the ring.
func (s *Server) handleDebugTrace(w http.ResponseWriter, r *http.Request) {
	data, ok := s.traces.Get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no captured trace for this id (not sampled, or evicted from the ring)")
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Write(data)
}

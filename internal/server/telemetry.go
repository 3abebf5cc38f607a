package server

// Request telemetry for the daemon: per-request structured logs, labeled
// request/duration metrics, and the per-stage histograms. See DESIGN.md,
// "Observability".

import (
	"fmt"
	"net/http"
	"runtime/debug"
	"strconv"
	"strings"
	"time"

	"log/slog"

	"gator/internal/metrics"
	"gator/internal/trace"
)

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

// withTelemetry is the daemon's outermost middleware. Per request it
// counts http_requests_total{route,status}, observes
// http_request_duration_us{route}, emits one structured log line, and
// converts handler panics into logged 500s instead of lost connections
// (panics inside analysis jobs are already isolated by the job runner;
// this catches the serving layer itself).
func (s *Server) withTelemetry(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
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
// scrape and a warn line for the log stream.
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
			slog.String("route", route))
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

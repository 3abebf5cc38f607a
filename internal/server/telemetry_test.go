package server

// End-to-end tests of the request telemetry layer over real HTTP: the
// structured request log, /metrics content negotiation and Prometheus
// validity, and graceful-drain rejection accounting.

import (
	"bytes"
	"encoding/json"
	"errors"
	"log/slog"
	"net/http"
	"strings"
	"sync"
	"testing"

	"gator/internal/metrics"
)

// syncBuffer is a goroutine-safe log sink for the test servers.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// logLines parses the buffer as one slog JSON record per line.
func (b *syncBuffer) logLines(t *testing.T) []map[string]any {
	t.Helper()
	var recs []map[string]any
	for _, line := range strings.Split(strings.TrimSpace(b.String()), "\n") {
		if line == "" {
			continue
		}
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("log line is not JSON: %v\n%s", err, line)
		}
		recs = append(recs, rec)
	}
	return recs
}

func newTelemetryServer(t *testing.T, cfg Config) (*Server, *Client, *syncBuffer) {
	t.Helper()
	logBuf := &syncBuffer{}
	cfg.Logger = slog.New(slog.NewJSONHandler(logBuf, nil))
	srv, c := newTestServer(t, cfg)
	return srv, c, logBuf
}

// TestRequestLogLine: one analyze request leaves one structured log line
// carrying its method, route, path, status, response size and duration.
func TestRequestLogLine(t *testing.T) {
	_, c, logBuf := newTelemetryServer(t, Config{})
	sources, layouts := figure1Maps()
	if _, err := c.Analyze(AnalyzeRequest{Name: "figure1", Sources: sources, Layouts: layouts}); err != nil {
		t.Fatal(err)
	}
	var found bool
	for _, rec := range logBuf.logLines(t) {
		if rec["msg"] != "request" || rec["route"] != "/v1/analyze" {
			continue
		}
		found = true
		if rec["method"] != "POST" || rec["path"] != "/v1/analyze" || rec["status"] != float64(200) {
			t.Fatalf("log line method %v, path %v, status %v", rec["method"], rec["path"], rec["status"])
		}
		if _, ok := rec["bytes"].(float64); !ok {
			t.Fatalf("log line lacks bytes: %v", rec)
		}
		if _, ok := rec["durMs"].(float64); !ok {
			t.Fatalf("log line lacks durMs: %v", rec)
		}
	}
	if !found {
		t.Fatalf("no request log line for /v1/analyze:\n%s", logBuf.String())
	}
}

// TestMetricsContentNegotiation pins the /metrics surface: Prometheus text
// at /metrics, JSON at /metrics.json, and Client.Metrics() returning the
// JSON rendering.
func TestMetricsContentNegotiation(t *testing.T) {
	_, c, _ := newTelemetryServer(t, Config{})
	sources, layouts := figure1Maps()
	if _, err := c.Analyze(AnalyzeRequest{Name: "figure1", Sources: sources, Layouts: layouts}); err != nil {
		t.Fatal(err)
	}

	prom, err := c.getRaw("/metrics")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := metrics.ParsePrometheus(prom); err != nil {
		t.Fatalf("/metrics is not valid Prometheus text: %v\n%s", err, prom)
	}
	if bytes.HasPrefix(bytes.TrimSpace(prom), []byte("{")) {
		t.Fatal("/metrics served JSON")
	}

	viaPath, err := c.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	var snap map[string]any
	if err := json.Unmarshal(viaPath, &snap); err != nil {
		t.Fatalf("/metrics.json is not JSON: %v", err)
	}
	if !strings.Contains(string(viaPath), "server.jobs.admitted") {
		t.Fatal("JSON rendering lost the registry counters")
	}
}

// TestMetricsPrometheusE2E: after real traffic the scrape carries the
// request counters, stage histograms, and callback gauges; two idle
// scrapes are byte-identical; and the exposition passes the parser's
// histogram invariants.
func TestMetricsPrometheusE2E(t *testing.T) {
	_, c, _ := newTelemetryServer(t, Config{})
	sources, layouts := figure1Maps()
	if _, err := c.Analyze(AnalyzeRequest{Name: "figure1", Sources: sources, Layouts: layouts}); err != nil {
		t.Fatal(err)
	}
	if err := c.Healthz(); err != nil {
		t.Fatal(err)
	}

	scrape1, err := c.MetricsProm()
	if err != nil {
		t.Fatal(err)
	}
	scrape2, err := c.MetricsProm()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(scrape1, scrape2) {
		t.Fatal("two idle scrapes differ")
	}

	fams, err := metrics.ParsePrometheus(scrape1)
	if err != nil {
		t.Fatalf("scrape invalid: %v\n%s", err, scrape1)
	}
	reqs, ok := fams["gatord_http_requests_total"]
	if !ok {
		t.Fatalf("no gatord_http_requests_total in scrape:\n%s", scrape1)
	}
	routes := map[string]bool{}
	for _, s := range reqs.Samples {
		routes[s.Labels["route"]] = true
		if s.Labels["status"] == "" {
			t.Fatalf("request counter without status label: %+v", s)
		}
	}
	if !routes["/v1/analyze"] || !routes["/healthz"] {
		t.Fatalf("request counter routes missing: %v", routes)
	}
	for _, fam := range []string{"gatord_stage_duration_us", "gatord_http_request_duration_us",
		"gatord_jobs_queue_depth", "gatord_sessions_active"} {
		if _, ok := fams[fam]; !ok {
			t.Fatalf("family %s missing from scrape", fam)
		}
	}
	if fams["gatord_stage_duration_us"].Type != "histogram" {
		t.Fatal("stage_duration_us is not a histogram")
	}
}

// TestDrainRejectionTelemetry: a draining daemon's 503s increment
// requests_rejected_total{reason="draining"} and log the rejection.
func TestDrainRejectionTelemetry(t *testing.T) {
	srv, c, logBuf := newTelemetryServer(t, Config{})
	srv.Drain()

	sources, layouts := figure1Maps()
	_, err := c.Analyze(AnalyzeRequest{Name: "figure1", Sources: sources, Layouts: layouts})
	var se *StatusError
	if !errors.As(err, &se) || se.Code != http.StatusServiceUnavailable {
		t.Fatalf("draining analyze: %v, want 503", err)
	}

	data, err := c.MetricsProm()
	if err != nil {
		t.Fatal(err)
	}
	fams, err := metrics.ParsePrometheus(data)
	if err != nil {
		t.Fatal(err)
	}
	rej, ok := fams["gatord_requests_rejected_total"]
	if !ok {
		t.Fatalf("no rejection counter in scrape:\n%s", data)
	}
	var drained float64
	for _, s := range rej.Samples {
		if s.Labels["reason"] == "draining" {
			drained = s.Value
		}
	}
	if drained != 1 {
		t.Fatalf("requests_rejected_total{reason=draining} = %v, want 1", drained)
	}

	var logged bool
	for _, rec := range logBuf.logLines(t) {
		if rec["msg"] == "request rejected" && rec["reason"] == "draining" &&
			rec["method"] == "POST" && rec["route"] == "/v1/analyze" {
			logged = true
		}
	}
	if !logged {
		t.Fatalf("no rejection log line:\n%s", logBuf.String())
	}
}

// TestNoTelemetryMode: the benchmark baseline serves without middleware —
// no http_requests_total, no stage histograms, JSON still at
// /metrics.json.
func TestNoTelemetryMode(t *testing.T) {
	_, c := newTestServer(t, Config{NoTelemetry: true})
	sources, layouts := figure1Maps()
	if _, err := c.Analyze(AnalyzeRequest{Name: "figure1", Sources: sources, Layouts: layouts}); err != nil {
		t.Fatal(err)
	}
	data, err := c.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(data), "http_requests_total") {
		t.Fatal("NoTelemetry server counted requests")
	}
	if strings.Contains(string(data), "stage_duration_us") {
		t.Fatal("NoTelemetry server observed stages")
	}
}

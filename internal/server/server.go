// Package server is the analysis-as-a-service layer: a long-running HTTP
// daemon (cmd/gatord) serving the full gator pipeline — cold submissions,
// content-addressed result replay, warm incremental sessions — with
// bounded admission, per-job deadlines, panic isolation, and graceful
// drain. The serving layer adds no analysis semantics of its own: requests
// carry the library's own gator.Options and report.Request, and every
// report is rendered by internal/report from a *gator.Result, so remote
// output is byte-identical to the local CLI's (the contract server tests
// verify; see DESIGN.md, "Serving").
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/pprof"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"log/slog"

	"gator"
	"gator/internal/cache"
	"gator/internal/metrics"
	"gator/internal/report"
	"gator/internal/trace"
)

// Config tunes the daemon; the zero value serves with sane defaults.
type Config struct {
	// Workers bounds concurrent analyses (default GOMAXPROCS).
	Workers int
	// QueueDepth bounds jobs admitted but not yet running (default 64).
	// Past it, submissions get 429 + Retry-After.
	QueueDepth int
	// MaxRequestBytes bounds request bodies (default 16 MiB → 413 past it).
	MaxRequestBytes int64
	// JobTimeout bounds one job's queue wait plus execution (default 60s →
	// 504 past it).
	JobTimeout time.Duration
	// SessionTTL evicts sessions idle longer than this (default 30m).
	SessionTTL time.Duration
	// MaxSessions caps live sessions; creating past it evicts the least
	// recently used (default 256).
	MaxSessions int
	// Logger receives one structured line per request (plus rejection and
	// panic diagnostics). nil disables request logging; metrics are
	// unaffected.
	Logger *slog.Logger
	// NoTelemetry turns the request telemetry layer off — no middleware,
	// no per-request metrics or logs. The overhead benchmark (BENCH_8.json)
	// serves this as its baseline.
	NoTelemetry bool
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.MaxRequestBytes <= 0 {
		c.MaxRequestBytes = 16 << 20
	}
	if c.JobTimeout <= 0 {
		c.JobTimeout = 60 * time.Second
	}
	if c.SessionTTL <= 0 {
		c.SessionTTL = 30 * time.Minute
	}
	if c.MaxSessions <= 0 {
		c.MaxSessions = 256
	}
	return c
}

// Server is the daemon's state. Create with New, serve Handler(), stop
// with Drain.
type Server struct {
	cfg      Config
	reg      *metrics.Registry
	jobs     *jobRunner
	sessions *sessionStore
	results  *cache.ResultCache
	appCache *gator.Cache // shared parse cache across requests and sessions
	mux      *http.ServeMux
	handler  http.Handler // mux wrapped in telemetry middleware
	ready    atomic.Bool

	// Telemetry state: obs mirrors !cfg.NoTelemetry, log is the request
	// logger.
	obs bool
	log *slog.Logger
}

// New builds a server from cfg. The error is always nil.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	reg := metrics.NewRegistry()
	obs := !cfg.NoTelemetry
	var queueHist *metrics.Histogram
	if obs {
		// nil histogram = allocation-free no-op in the runner when
		// telemetry is off.
		queueHist = reg.Histogram(stageMetric(trace.StageQueue))
	}
	s := &Server{
		cfg:      cfg,
		reg:      reg,
		jobs:     newJobRunner(cfg.Workers, cfg.QueueDepth, cfg.JobTimeout, reg, queueHist),
		sessions: newSessionStore(cfg.MaxSessions, cfg.SessionTTL, reg),
		results:  cache.NewResultCache(0), // the default 64 MiB
		appCache: gator.NewCache(),
		obs:      obs,
		log:      cfg.Logger,
	}
	if obs {
		// Callback gauges: live values owned by other subsystems, sampled
		// at scrape time.
		reg.GaugeFunc("jobs.queue_depth", func() int64 { return int64(len(s.jobs.queue)) })
		reg.GaugeFunc("sessions.active", func() int64 { return int64(s.sessions.len()) })
	}
	s.mux = http.NewServeMux()
	s.routes()
	s.handler = s.mux
	if obs {
		s.handler = s.withTelemetry(s.mux)
	}
	s.ready.Store(true)
	return s, nil
}

func (s *Server) routes() {
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /readyz", s.handleReadyz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /metrics.json", s.handleMetricsJSON)
	s.mux.HandleFunc("POST /v1/analyze", s.handleAnalyze)
	s.mux.HandleFunc("POST /v1/sessions", s.handleSessionCreate)
	s.mux.HandleFunc("GET /v1/sessions/{id}", s.handleSessionInfo)
	s.mux.HandleFunc("PATCH /v1/sessions/{id}", s.handleSessionPatch)
	s.mux.HandleFunc("DELETE /v1/sessions/{id}", s.handleSessionDelete)
	s.mux.HandleFunc("/debug/pprof/", pprof.Index)
	s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
}

// Handler returns the daemon's HTTP handler: the route mux wrapped in the
// telemetry middleware (unless Config.NoTelemetry).
func (s *Server) Handler() http.Handler { return s.handler }

// Registry exposes the server's metrics registry (served at /metrics).
func (s *Server) Registry() *metrics.Registry { return s.reg }

// Ready reports whether the server is accepting work (false once draining).
func (s *Server) Ready() bool { return s.ready.Load() }

// Drain performs graceful shutdown of the analysis side: /readyz starts
// failing (load balancers stop routing), new and queued jobs are rejected
// with 503, and Drain returns once in-flight jobs finish. The HTTP
// listener itself is the caller's to close (http.Server.Shutdown).
func (s *Server) Drain() {
	s.ready.Store(false)
	s.jobs.drain()
}

// SweepSessions evicts idle-expired sessions; the daemon calls it
// periodically.
func (s *Server) SweepSessions() int { return s.sessions.sweep(time.Now()) }

// ---- wire types ----

// ReportSpec selects a report surface: report, explain, seed and checks,
// carried flat in a request body.
type ReportSpec = report.Request

// AnalyzeRequest is the body of POST /v1/analyze and POST /v1/sessions.
type AnalyzeRequest struct {
	// Name labels the application in reports (default "app").
	Name string `json:"name,omitempty"`
	// Sources maps file name → ALite source; Layouts maps layout name →
	// XML (the same maps gator.Load takes).
	Sources map[string]string `json:"sources"`
	Layouts map[string]string `json:"layouts,omitempty"`
	// Options are the analysis options, fixed per session. Provenance is
	// also switched on by an explain query that needs it
	// (ReportSpec.NeedsProvenance).
	Options gator.Options `json:"options,omitempty"`
	ReportSpec
	// NoCache skips the content-addressed result caches (for benchmarking
	// and for callers that want a guaranteed fresh solve).
	NoCache bool `json:"noCache,omitempty"`
}

// PatchRequest is the body of PATCH /v1/sessions/{id}: an edit to the
// session's inputs plus the report to render from the warm re-analysis.
type PatchRequest struct {
	// Sources/Layouts merge into the session's current inputs (file →
	// new content); RemoveSources/RemoveLayouts delete files.
	Sources       map[string]string `json:"sources,omitempty"`
	Layouts       map[string]string `json:"layouts,omitempty"`
	RemoveSources []string          `json:"removeSources,omitempty"`
	RemoveLayouts []string          `json:"removeLayouts,omitempty"`
	// Replace, when true, treats Sources/Layouts as the complete new
	// input instead of a merge (what a directory-watching client sends).
	Replace bool `json:"replace,omitempty"`
	ReportSpec
}

// AnalyzeResponse is the result of any analysis-bearing endpoint.
type AnalyzeResponse struct {
	Name   string `json:"name"`
	Report string `json:"report"`
	// ExitCode is what the local CLI would have exited with for this
	// report: 0 ok, 1 report-level failure (warnings, soundness
	// violation), matching the byte-identity contract.
	ExitCode int `json:"exitCode"`
	// Output is the rendered report, byte-identical to local rendering.
	Output string `json:"output"`
	// Stderr carries report-level diagnostics ("" normally).
	Stderr string `json:"stderr,omitempty"`
	// Cached marks a content-addressed replay (no solver work).
	Cached bool `json:"cached"`
	// ElapsedMs is the analysis wall time (0 for cached replays).
	ElapsedMs float64 `json:"elapsedMs"`
	// SessionID is set by session endpoints.
	SessionID string `json:"sessionId,omitempty"`
	// Incremental is set by session endpoints: how the solution was
	// computed (warm/scratch/unchanged).
	Incremental *gator.IncrementalStats `json:"incremental,omitempty"`
}

// SessionInfo is the body of GET /v1/sessions/{id}.
type SessionInfo struct {
	SessionID string        `json:"sessionId"`
	Name      string        `json:"name"`
	Sources   []string      `json:"sources"`
	Layouts   []string      `json:"layouts,omitempty"`
	Patches   int           `json:"patches"`
	Options   gator.Options `json:"options"`
}

// ErrorResponse is every non-2xx body.
type ErrorResponse struct {
	Error string `json:"error"`
}

// ---- shared handler plumbing ----

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, ErrorResponse{Error: fmt.Sprintf(format, args...)})
}

// writeJobError maps job-subsystem failures to HTTP semantics. Rejections
// count into requests_rejected_total{reason} and log a warn line, so a
// drained or saturated daemon is visible in both the scrape and the log
// stream.
func (s *Server) writeJobError(w http.ResponseWriter, r *http.Request, err error) {
	switch {
	case errors.Is(err, errBusy):
		s.rejectRequest(r, "busy")
		w.Header().Set("Retry-After", "1") // seconds
		writeError(w, http.StatusTooManyRequests, "analysis queue is full; retry later")
	case errors.Is(err, errDraining):
		s.rejectRequest(r, "draining")
		writeError(w, http.StatusServiceUnavailable, "server is draining")
	case errors.Is(err, context.DeadlineExceeded):
		writeError(w, http.StatusGatewayTimeout, "analysis exceeded the job deadline")
	case errors.Is(err, context.Canceled):
		// The client has gone; the status is best-effort.
		writeError(w, http.StatusRequestTimeout, "request canceled")
	default:
		writeError(w, http.StatusInternalServerError, "%v", err)
	}
}

// decodeBody decodes a size-limited JSON body, reporting (false, handled)
// on failure.
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxRequestBytes)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			s.reg.Add("server.requests.too_large", 1)
			writeError(w, http.StatusRequestEntityTooLarge, "request body exceeds %d bytes", tooBig.Limit)
			return false
		}
		writeError(w, http.StatusBadRequest, "bad request body: %v", err)
		return false
	}
	return true
}

// validateSpec rejects unknown report kinds up front.
func validateSpec(w http.ResponseWriter, spec ReportSpec) bool {
	if spec.Explain == "" && spec.Report != "" && !report.Known(spec.Report) {
		writeError(w, http.StatusBadRequest, "unknown report %q (known: %s)",
			spec.Report, strings.Join(report.Kinds(), ", "))
		return false
	}
	return true
}

// decodeAnalyze reads the body of an upload route (POST /v1/analyze, POST
// /v1/sessions), answering a malformed one. On success the name defaults
// to "app", and the options carry provenance when the report needs it —
// the CLI's rule, so the server runs the solve a local run would.
func (s *Server) decodeAnalyze(w http.ResponseWriter, r *http.Request) (AnalyzeRequest, bool) {
	var req AnalyzeRequest
	if !s.decodeBody(w, r, &req) {
		return req, false
	}
	if len(req.Sources) == 0 {
		writeError(w, http.StatusBadRequest, "no sources in request")
		return req, false
	}
	if !validateSpec(w, req.ReportSpec) {
		return req, false
	}
	if req.Name == "" {
		req.Name = "app"
	}
	req.Options.Provenance = req.Options.Provenance || req.NeedsProvenance()
	return req, true
}

// run is the one run-and-respond path of the analysis routes: solve
// computes the result on a job worker and the worker renders spec from it,
// both under lock when it is non-nil (a session's next patch consumes the
// result). Every failure is answered here — job errors by writeJobError, a
// consumed session result with 409, other solve errors with 422 — and run
// returns false; otherwise the route completes the response and sends it.
func (s *Server) run(w http.ResponseWriter, r *http.Request, name string, spec ReportSpec, lock *sync.Mutex,
	solve func() (*gator.Result, error)) (AnalyzeResponse, bool) {
	// resp and solveErr belong to the job until do returns nil: an
	// abandoned job may still write them.
	var resp AnalyzeResponse
	var solveErr error
	err := s.jobs.do(r.Context(), func() {
		if lock != nil {
			lock.Lock()
			defer lock.Unlock()
		}
		res, err := solve()
		if err != nil {
			solveErr = err
			return
		}
		var out, errBuf bytes.Buffer
		var code int
		stages := res.Stages()
		var untraced *trace.Scope // times the stage into the log, emits nothing
		untraced.Stage(&stages, trace.StageRender, func() { code = report.Render(&out, &errBuf, name, res, spec) })
		s.observeStages(stages)
		resp = AnalyzeResponse{
			Name:      name,
			Report:    spec.Kind(),
			ExitCode:  code,
			Output:    out.String(),
			Stderr:    errBuf.String(),
			ElapsedMs: float64(res.Elapsed()) / float64(time.Millisecond),
		}
		if incr := res.Incremental(); incr.Mode != "" {
			resp.Incremental = &incr
		}
	})
	switch {
	case err != nil:
		s.writeJobError(w, r, err)
		return AnalyzeResponse{}, false
	case errors.Is(solveErr, gator.ErrStaleResult):
		// HTTP mapping of the ErrStaleResult contract: the session's
		// previous solution was consumed by a concurrent writer.
		writeError(w, http.StatusConflict, "%v", solveErr)
		return AnalyzeResponse{}, false
	case solveErr != nil:
		writeError(w, http.StatusUnprocessableEntity, "%v", solveErr)
		return AnalyzeResponse{}, false
	}
	return resp, true
}

// ---- operational endpoints ----

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if !s.Ready() {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "draining")
		return
	}
	fmt.Fprintln(w, "ready")
}

// handleMetrics serves Prometheus text exposition; the JSON rendering is
// at /metrics.json.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	var buf bytes.Buffer
	if err := metrics.WritePrometheus(&buf, s.reg.Snapshot(), "gatord"); err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.Write(buf.Bytes())
}

func (s *Server) handleMetricsJSON(w http.ResponseWriter, _ *http.Request) {
	data, err := s.reg.JSON()
	if err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(data)
}

// ---- one-shot analysis ----

// cacheGet replays a stored rendering (report.EncodeEntry) from the result
// cache.
func (s *Server) cacheGet(key string) (code int, out string, ok bool) {
	if key == "" {
		return 0, "", false
	}
	if data, hit := s.results.Get(key); hit {
		code, out, ok = report.DecodeEntry(data)
	}
	if !ok {
		s.reg.Add("server.cache.misses", 1)
		return 0, "", false
	}
	s.reg.Add("server.cache.hits", 1)
	return code, out, true
}

func (s *Server) cachePut(key string, resp AnalyzeResponse) {
	// Only clean outcomes are replayable: diagnostics would be lost.
	if key == "" || resp.ExitCode > 1 || resp.Stderr != "" {
		return
	}
	s.results.Put(key, report.EncodeEntry(resp.ExitCode, resp.Output))
}

func (s *Server) handleAnalyze(w http.ResponseWriter, r *http.Request) {
	s.reg.Add("server.analyze.requests", 1)
	req, ok := s.decodeAnalyze(w, r)
	if !ok {
		return
	}
	var key string
	if !req.NoCache {
		key = req.CacheKey(req.Name, req.Options, req.Sources, req.Layouts)
	}
	if code, out, ok := s.cacheGet(key); ok {
		writeJSON(w, http.StatusOK, AnalyzeResponse{Name: req.Name, Report: req.Kind(), ExitCode: code, Output: out, Cached: true})
		return
	}
	resp, ok := s.run(w, r, req.Name, req.ReportSpec, nil, func() (*gator.Result, error) {
		app, err := gator.LoadCached(req.Sources, req.Layouts, s.appCache)
		if err != nil {
			return nil, err
		}
		app.Name = req.Name
		return app.Analyze(req.Options), nil
	})
	if ok {
		s.cachePut(key, resp)
		writeJSON(w, http.StatusOK, resp)
	}
}

// ---- sessions ----

func (s *Server) handleSessionCreate(w http.ResponseWriter, r *http.Request) {
	s.reg.Add("server.sessions.create_requests", 1)
	req, ok := s.decodeAnalyze(w, r)
	if !ok {
		return
	}
	sess := &session{
		id:      newSessionID(),
		name:    req.Name,
		opts:    req.Options,
		sources: copyMap(req.Sources),
		layouts: copyMap(req.Layouts),
	}
	resp, ok := s.run(w, r, sess.name, req.ReportSpec, nil, func() (*gator.Result, error) {
		res, err := gator.AnalyzeIncremental(nil, sess.sources, sess.layouts, sess.opts, s.appCache)
		if err != nil {
			return nil, err
		}
		res.SetAppName(sess.name)
		sess.prev = res
		return res, nil
	})
	if !ok {
		return
	}
	s.sessions.add(sess)
	resp.SessionID = sess.id
	writeJSON(w, http.StatusCreated, resp)
}

func (s *Server) handleSessionInfo(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.sessions.get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no such session (evicted or never created)")
		return
	}
	sess.mu.Lock()
	info := SessionInfo{
		SessionID: sess.id,
		Name:      sess.name,
		Patches:   sess.patches,
		Options:   sess.opts,
	}
	for n := range sess.sources {
		info.Sources = append(info.Sources, n)
	}
	for n := range sess.layouts {
		info.Layouts = append(info.Layouts, n)
	}
	sess.mu.Unlock()
	sort.Strings(info.Sources)
	sort.Strings(info.Layouts)
	writeJSON(w, http.StatusOK, info)
}

func (s *Server) handleSessionDelete(w http.ResponseWriter, r *http.Request) {
	if !s.sessions.remove(r.PathValue("id")) {
		writeError(w, http.StatusNotFound, "no such session")
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleSessionPatch(w http.ResponseWriter, r *http.Request) {
	s.reg.Add("server.sessions.patch_requests", 1)
	sess, ok := s.sessions.get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no such session (evicted or never created)")
		return
	}
	var req PatchRequest
	if !s.decodeBody(w, r, &req) || !validateSpec(w, req.ReportSpec) {
		return
	}
	if req.NeedsProvenance() && !sess.opts.Provenance {
		writeError(w, http.StatusUnprocessableEntity,
			"session was created without provenance; recreate it with options.provenance or a derivation explain query")
		return
	}

	// The per-session lock serializes concurrent patches: the second waits
	// for the first instead of tripping over a consumed result.
	resp, ok := s.run(w, r, sess.name, req.ReportSpec, &sess.mu, func() (*gator.Result, error) {
		sources, layouts := patchedInputs(sess, req)
		res, err := gator.AnalyzeIncremental(sess.prev, sources, layouts, sess.opts, s.appCache)
		if err != nil {
			// A consumed previous result cannot be analyzed again; drop it
			// so the next patch recovers with a scratch solve.
			if errors.Is(err, gator.ErrStaleResult) || (sess.prev != nil && sess.prev.Stale()) {
				sess.prev = nil
			}
			return nil, err
		}
		res.SetAppName(sess.name)
		sess.prev = res
		sess.sources = sources
		sess.layouts = layouts
		sess.patches++
		switch res.Incremental().Mode {
		case "warm":
			s.reg.Add("server.sessions.warm", 1)
			if res.Incremental().Compacted {
				s.reg.Add("server.sessions.compactions", 1)
			}
		case "scratch":
			s.reg.Add("server.sessions.scratch", 1)
		}
		return res, nil
	})
	if ok {
		resp.SessionID = sess.id
		writeJSON(w, http.StatusOK, resp)
	}
}

// patchedInputs applies one edit to a session's inputs (session lock held).
func patchedInputs(sess *session, req PatchRequest) (sources, layouts map[string]string) {
	if req.Replace {
		return copyMap(req.Sources), copyMap(req.Layouts)
	}
	sources, layouts = sess.snapshotInputs()
	for n, src := range req.Sources {
		sources[n] = src
	}
	for _, n := range req.RemoveSources {
		delete(sources, n)
	}
	for n, xml := range req.Layouts {
		layouts[n] = xml
	}
	for _, n := range req.RemoveLayouts {
		delete(layouts, n)
	}
	return sources, layouts
}

// ---- small helpers ----

func copyMap(m map[string]string) map[string]string {
	out := make(map[string]string, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

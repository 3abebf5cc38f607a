// Package server is the analysis-as-a-service layer: a long-running HTTP
// daemon (cmd/gatord) serving the full gator pipeline — cold submissions,
// content-addressed result replay, warm incremental sessions, streaming
// batch analysis — with bounded admission, per-job deadlines, panic
// isolation, and graceful drain. The serving layer adds no analysis
// semantics of its own: every report is rendered by internal/report from a
// *gator.Result, so remote output is byte-identical to the local CLI's
// (the contract server tests verify; see DESIGN.md, "Serving").
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
	"sync/atomic"
	"time"

	"log/slog"

	"gator"
	"gator/internal/cache"
	"gator/internal/metrics"
	"gator/internal/report"
	"gator/internal/telemetry"
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
	// CacheDir, when set, persists rendered reports on disk so identical
	// submissions replay across daemon restarts.
	CacheDir string
	// CacheMaxBytes bounds the disk cache (LRU eviction; <= 0 unbounded).
	CacheMaxBytes int64
	// Logger receives one structured line per request (plus rejection and
	// panic diagnostics). nil disables request logging; metrics and trace
	// propagation are unaffected.
	Logger *slog.Logger
	// TraceSample enables head-based solver trace capture: every Nth
	// analysis-bearing request records its solver trace into the debug
	// ring (0 disables sampling; ?trace=1 always captures).
	TraceSample int
	// TraceRingEntries bounds the ring of captured solver traces behind
	// /v1/debug/traces (default 64 entries; the ring also holds at most
	// 16 MiB).
	TraceRingEntries int
	// NoTelemetry turns the request telemetry layer off — no middleware,
	// no span propagation, no per-request metrics or logs. The overhead
	// benchmark (BENCH_8.json) serves this as its baseline.
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
	disk     *cache.DiskStore
	appCache *gator.Cache // shared parse cache across requests and sessions
	mux      *http.ServeMux
	handler  http.Handler // mux wrapped in telemetry middleware
	ready    atomic.Bool

	// Telemetry state: obs mirrors !cfg.NoTelemetry, log is the request
	// logger, traces the captured-solver-trace ring, and sampleSeq the
	// head-sampling request counter.
	obs       bool
	log       *slog.Logger
	traces    *telemetry.TraceRing
	sampleSeq atomic.Int64
}

// New builds a server from cfg.
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
		traces:   telemetry.NewTraceRing(cfg.TraceRingEntries, 0),
	}
	if cfg.CacheDir != "" {
		store, err := cache.OpenDiskStore(cfg.CacheDir, cfg.CacheMaxBytes)
		if err != nil {
			return nil, err
		}
		s.disk = store
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
	s.mux.HandleFunc("GET /v1/debug/traces/{id}", s.handleDebugTrace)
	s.mux.HandleFunc("POST /v1/analyze", s.handleAnalyze)
	s.mux.HandleFunc("POST /v1/batch", s.handleBatch)
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

// OptionsJSON mirrors gator.Options for the wire (solution-changing knobs
// only; provenance is requested implicitly by explain queries or
// explicitly for sessions that will be asked to explain).
type OptionsJSON struct {
	FilterCasts           bool `json:"filterCasts,omitempty"`
	SharedInflation       bool `json:"sharedInflation,omitempty"`
	NoFindView3Refinement bool `json:"noFindView3,omitempty"`
	DeclaredDispatchOnly  bool `json:"declaredDispatchOnly,omitempty"`
	// ContextSensitivity selects the cloning-based context mode:
	// "off" (or empty) or "1cfa".
	ContextSensitivity string `json:"contextSensitivity,omitempty"`
	Provenance         bool   `json:"provenance,omitempty"`
}

func (o OptionsJSON) toOptions() gator.Options {
	ctx, _ := gator.ParseCtxMode(o.ContextSensitivity)
	return gator.Options{
		FilterCasts:           o.FilterCasts,
		SharedInflation:       o.SharedInflation,
		NoFindView3Refinement: o.NoFindView3Refinement,
		DeclaredDispatchOnly:  o.DeclaredDispatchOnly,
		ContextSensitivity:    ctx,
		Provenance:            o.Provenance,
	}
}

// ReportSpec selects a report surface (mirrors internal/report.Request).
type ReportSpec struct {
	// Report is the report kind (report.Kinds); "" means "summary".
	Report string `json:"report,omitempty"`
	// Explain renders derivation trees instead: "Class.method.var" or
	// "id:name". Implies provenance.
	Explain string `json:"explain,omitempty"`
	// Seed seeds the "explore" report's interpreter (default 1).
	Seed int64 `json:"seed,omitempty"`
	// Checks restricts the "checks"/"sarif" reports to the named IDs.
	Checks []string `json:"checks,omitempty"`
}

func (rs ReportSpec) request() report.Request {
	seed := rs.Seed
	if seed == 0 {
		seed = 1
	}
	return report.Request{Report: rs.Report, Explain: rs.Explain, Seed: seed, Checks: rs.Checks}
}

// AnalyzeRequest is the body of POST /v1/analyze and POST /v1/sessions.
type AnalyzeRequest struct {
	// Name labels the application in reports (default "app").
	Name string `json:"name,omitempty"`
	// Sources maps file name → ALite source; Layouts maps layout name →
	// XML (the same maps gator.Load takes).
	Sources map[string]string `json:"sources"`
	Layouts map[string]string `json:"layouts,omitempty"`
	// Options are the analysis options, fixed per session.
	Options OptionsJSON `json:"options,omitempty"`
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

// IncrementalInfo mirrors gator.IncrementalStats on the wire.
type IncrementalInfo struct {
	Mode       string   `json:"mode"`
	Reason     string   `json:"reason,omitempty"`
	Retained   int      `json:"retained,omitempty"`
	Retracted  int      `json:"retracted,omitempty"`
	DirtyUnits []string `json:"dirtyUnits,omitempty"`
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
	// TraceID is set when this request's solver trace was captured
	// (?trace=1 or head sampling); fetch the events at
	// GET /v1/debug/traces/{traceId}.
	TraceID string `json:"traceId,omitempty"`
	// Incremental is set by session endpoints: how the solution was
	// computed (warm/scratch/unchanged).
	Incremental *IncrementalInfo `json:"incremental,omitempty"`
}

// SessionInfo is the body of GET /v1/sessions/{id}.
type SessionInfo struct {
	SessionID string      `json:"sessionId"`
	Name      string      `json:"name"`
	Sources   []string    `json:"sources"`
	Layouts   []string    `json:"layouts,omitempty"`
	Patches   int         `json:"patches"`
	Options   OptionsJSON `json:"options"`
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
// count into requests_rejected_total{reason} and log with the request's
// trace id, so a drained or saturated daemon is visible in both the scrape
// and the log stream.
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

// validateOptions rejects unknown option enum values up front — a typo'd
// context mode must fail the request, not silently analyze insensitively.
func validateOptions(w http.ResponseWriter, o OptionsJSON) bool {
	if _, err := gator.ParseCtxMode(o.ContextSensitivity); err != nil {
		writeError(w, http.StatusBadRequest, "contextSensitivity: %v", err)
		return false
	}
	return true
}

// rendered is one analysis outcome: the rendered report plus metadata.
type rendered struct {
	code    int
	out     []byte
	errText string
	elapsed time.Duration
	loadErr error
}

// render runs one report over a solved result as the render stage (a phase
// on scope), then observes the result's stages and render in
// stage_duration_us.
func (s *Server) render(name string, res *gator.Result, req report.Request, scope *trace.Scope) rendered {
	var out, errBuf bytes.Buffer
	var code int
	stages := res.Stages()
	scope.Stage(&stages, trace.StageRender, func() { code = report.Render(&out, &errBuf, name, res, req) })
	s.observeStages(stages)
	return rendered{code: code, out: out.Bytes(), errText: errBuf.String(), elapsed: res.Elapsed()}
}

func (rd rendered) response(name string, spec ReportSpec) AnalyzeResponse {
	return AnalyzeResponse{
		Name:      name,
		Report:    spec.request().Kind(),
		ExitCode:  rd.code,
		Output:    string(rd.out),
		Stderr:    rd.errText,
		ElapsedMs: float64(rd.elapsed) / float64(time.Millisecond),
	}
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

// handleMetrics serves Prometheus text exposition by default; an Accept
// header asking for application/json gets the legacy JSON rendering
// (also always available at /metrics.json).
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if strings.Contains(r.Header.Get("Accept"), "application/json") {
		s.handleMetricsJSON(w, r)
		return
	}
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

// cacheKey fingerprints a request for the content-addressed result caches;
// "" when the request is not cacheable (unstable report, explicit opt-out).
func (s *Server) cacheKey(req AnalyzeRequest) string {
	spec := req.request()
	if req.NoCache || spec.Explain != "" || !report.Stable(spec.Kind()) {
		return ""
	}
	tag := fmt.Sprintf("%s|report=%s|seed=%d|checks=%s",
		req.Options.toOptions().CacheTag(), spec.Kind(), spec.Seed, strings.Join(spec.Checks, ","))
	return cache.AppFingerprint(tag, req.Sources, req.Layouts)
}

// cacheGet replays a stored entry (one exit-code digit + rendered bytes).
func (s *Server) cacheGet(key string) (rendered, bool) {
	if key == "" {
		return rendered{}, false
	}
	data, hit := s.results.Get(key)
	if !hit && s.disk != nil {
		if d, ok := s.disk.Get(key); ok {
			data, hit = d, true
			s.results.Put(key, data) // promote to the memory tier
			s.reg.Add("server.cache.disk_hits", 1)
		}
	}
	if !hit || len(data) == 0 {
		s.reg.Add("server.cache.misses", 1)
		return rendered{}, false
	}
	s.reg.Add("server.cache.hits", 1)
	return rendered{code: int(data[0] - '0'), out: data[1:]}, true
}

func (s *Server) cachePut(key string, rd rendered) {
	// Only clean outcomes are replayable: diagnostics would be lost.
	if key == "" || rd.code > 1 || rd.errText != "" {
		return
	}
	entry := append([]byte{byte('0' + rd.code)}, rd.out...)
	s.results.Put(key, entry)
	if s.disk != nil {
		s.disk.Put(key, entry)
	}
}

func (s *Server) handleAnalyze(w http.ResponseWriter, r *http.Request) {
	s.reg.Add("server.analyze.requests", 1)
	var req AnalyzeRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	if len(req.Sources) == 0 {
		writeError(w, http.StatusBadRequest, "no sources in request")
		return
	}
	if !validateSpec(w, req.ReportSpec) {
		return
	}
	if !validateOptions(w, req.Options) {
		return
	}
	name := req.Name
	if name == "" {
		name = "app"
	}

	key := s.cacheKey(req)
	// An explicit ?trace=1 wants a solver trace, which a cache replay
	// cannot produce — bypass the replay and run the solver.
	if rd, ok := s.cacheGet(key); ok && !s.forceTrace(r) {
		resp := rd.response(name, req.ReportSpec)
		resp.Cached = true
		resp.ElapsedMs = 0
		writeJSON(w, http.StatusOK, resp)
		return
	}

	opts := req.Options.toOptions()
	if req.Explain != "" {
		opts.Provenance = true
	}
	sink, scope, traceID := s.captureScope(r, name)
	opts.Trace = scope
	var rd rendered
	err := s.jobs.do(r.Context(), func() {
		app, err := gator.LoadCached(req.Sources, req.Layouts, s.appCache)
		if err != nil {
			rd.loadErr = err
			return
		}
		app.Name = name
		rd = s.render(name, app.Analyze(opts), req.request(), scope)
	})
	if err != nil {
		s.writeJobError(w, r, err)
		return
	}
	if rd.loadErr != nil {
		writeError(w, http.StatusUnprocessableEntity, "%v", rd.loadErr)
		return
	}
	s.cachePut(key, rd)
	resp := rd.response(name, req.ReportSpec)
	if sink != nil {
		s.storeTrace(traceID, sink)
		resp.TraceID = traceID
	}
	writeJSON(w, http.StatusOK, resp)
}

// ---- sessions ----

func (s *Server) handleSessionCreate(w http.ResponseWriter, r *http.Request) {
	s.reg.Add("server.sessions.create_requests", 1)
	var req AnalyzeRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	if len(req.Sources) == 0 {
		writeError(w, http.StatusBadRequest, "no sources in request")
		return
	}
	if !validateSpec(w, req.ReportSpec) {
		return
	}
	if !validateOptions(w, req.Options) {
		return
	}
	name := req.Name
	if name == "" {
		name = "app"
	}
	opts := req.Options.toOptions()
	if req.Explain != "" {
		opts.Provenance = true
	}

	sess := &session{
		id:      newSessionID(),
		name:    name,
		opts:    opts,
		sources: copyMap(req.Sources),
		layouts: copyMap(req.Layouts),
	}
	sink, scope, traceID := s.captureScope(r, name)
	var rd rendered
	var incr gator.IncrementalStats
	err := s.jobs.do(r.Context(), func() {
		solveOpts := sess.opts
		solveOpts.Trace = scope
		res, err := gator.AnalyzeIncremental(nil, sess.sources, sess.layouts, solveOpts, s.appCache)
		if err != nil {
			rd.loadErr = err
			return
		}
		res.SetAppName(name)
		sess.prev = res
		incr = res.Incremental()
		rd = s.render(name, res, req.request(), scope)
	})
	if err != nil {
		s.writeJobError(w, r, err)
		return
	}
	if rd.loadErr != nil {
		writeError(w, http.StatusUnprocessableEntity, "%v", rd.loadErr)
		return
	}
	s.sessions.add(sess)
	resp := rd.response(name, req.ReportSpec)
	resp.SessionID = sess.id
	resp.Incremental = incrInfo(incr)
	if sink != nil {
		s.storeTrace(traceID, sink)
		resp.TraceID = traceID
	}
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
		Options:   optionsJSON(sess.opts),
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
	if !s.decodeBody(w, r, &req) {
		return
	}
	if !validateSpec(w, req.ReportSpec) {
		return
	}
	if req.Explain != "" && !sess.opts.Provenance {
		writeError(w, http.StatusUnprocessableEntity,
			"session was created without provenance; recreate it with options.provenance or an explain query")
		return
	}

	sink, scope, traceID := s.captureScope(r, sess.name)
	var rd rendered
	var incr gator.IncrementalStats
	var patchErr error
	err := s.jobs.do(r.Context(), func() {
		// The per-session lock serializes concurrent patches: the second
		// waits for the first instead of tripping over a consumed result.
		sess.mu.Lock()
		defer sess.mu.Unlock()
		sources, layouts := patchedInputs(sess, req)
		// Trace on a copy: the session's stored options stay scope-free.
		solveOpts := sess.opts
		solveOpts.Trace = scope
		res, err := gator.AnalyzeIncremental(sess.prev, sources, layouts, solveOpts, s.appCache)
		if err != nil {
			// A consumed previous result cannot be analyzed again; drop it
			// so the next patch recovers with a scratch solve.
			if errors.Is(err, gator.ErrStaleResult) || (sess.prev != nil && sess.prev.Stale()) {
				sess.prev = nil
			}
			patchErr = err
			return
		}
		res.SetAppName(sess.name)
		sess.prev = res
		sess.sources = sources
		sess.layouts = layouts
		sess.patches++
		incr = res.Incremental()
		switch incr.Mode {
		case "warm":
			s.reg.Add("server.sessions.warm", 1)
		case "scratch":
			s.reg.Add("server.sessions.scratch", 1)
		}
		rd = s.render(sess.name, res, req.request(), scope)
	})
	if err != nil {
		s.writeJobError(w, r, err)
		return
	}
	if patchErr != nil {
		if errors.Is(patchErr, gator.ErrStaleResult) {
			// HTTP mapping of the ErrStaleResult contract: the session's
			// previous solution was consumed by a concurrent writer.
			writeError(w, http.StatusConflict, "%v", patchErr)
			return
		}
		writeError(w, http.StatusUnprocessableEntity, "%v", patchErr)
		return
	}
	resp := rd.response(sess.name, req.ReportSpec)
	resp.SessionID = sess.id
	resp.Incremental = incrInfo(incr)
	if sink != nil {
		s.storeTrace(traceID, sink)
		resp.TraceID = traceID
	}
	writeJSON(w, http.StatusOK, resp)
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

// ---- streaming batch ----

// BatchRequest is the body of POST /v1/batch: several applications
// analyzed as one parallel batch, progress streamed as server-sent events.
type BatchRequest struct {
	Apps    []AnalyzeRequest `json:"apps"`
	Options OptionsJSON      `json:"options,omitempty"`
	ReportSpec
}

// BatchProgress is one SSE "progress" event: a serialized
// gator.ProgressEvent.
type BatchProgress struct {
	Index  int    `json:"index"`
	Done   int    `json:"done"`
	Total  int    `json:"total"`
	Name   string `json:"name"`
	Worker int    `json:"worker"`
	Err    string `json:"err,omitempty"`
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	s.reg.Add("server.batch.requests", 1)
	var req BatchRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	if len(req.Apps) == 0 {
		writeError(w, http.StatusBadRequest, "no apps in request")
		return
	}
	if !validateSpec(w, req.ReportSpec) {
		return
	}
	if !validateOptions(w, req.Options) {
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, "response writer cannot stream")
		return
	}

	inputs := make([]gator.BatchInput, len(req.Apps))
	for i, a := range req.Apps {
		name := a.Name
		if name == "" {
			name = fmt.Sprintf("app%d", i)
		}
		inputs[i] = gator.BatchInput{Name: name, Sources: a.Sources, Layouts: a.Layouts}
	}

	// The job owns the response writer until it completes (doStream never
	// abandons a running job), so streaming from inside the worker is safe.
	err := s.jobs.doStream(r.Context(), func() {
		w.Header().Set("Content-Type", "text/event-stream")
		w.Header().Set("Cache-Control", "no-cache")
		w.WriteHeader(http.StatusOK)
		sse := func(event string, v any) {
			data, _ := json.Marshal(v)
			fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, data)
			flusher.Flush()
		}
		batch := gator.AnalyzeBatch(inputs, gator.BatchOptions{
			Workers: s.cfg.Workers,
			Options: req.Options.toOptions(),
			Cache:   s.appCache,
			Progress: func(ev gator.ProgressEvent) {
				p := BatchProgress{Index: ev.Index, Done: ev.Done, Total: ev.Total, Name: ev.Name, Worker: ev.Worker}
				if ev.Err != nil {
					p.Err = ev.Err.Error()
				}
				sse("progress", p)
			},
		})
		for _, rep := range batch.Apps {
			if rep.Err != nil {
				sse("error", ErrorResponse{Error: rep.Err.Error()})
				continue
			}
			rd := s.render(rep.Name, rep.Result, req.request(), nil)
			sse("result", rd.response(rep.Name, req.ReportSpec))
		}
		sse("done", BatchProgress{Total: len(inputs), Done: len(inputs)})
	})
	if err != nil {
		// Nothing has been written yet only on admission failures; panics
		// mid-stream surface as a final error event attempt.
		if errors.Is(err, errBusy) || errors.Is(err, errDraining) {
			s.writeJobError(w, r, err)
			return
		}
		fmt.Fprintf(w, "event: error\ndata: %s\n\n", mustJSON(ErrorResponse{Error: err.Error()}))
		flusher.Flush()
	}
}

// ---- small helpers ----

func mustJSON(v any) []byte {
	data, _ := json.Marshal(v)
	return data
}

func copyMap(m map[string]string) map[string]string {
	out := make(map[string]string, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

func incrInfo(st gator.IncrementalStats) *IncrementalInfo {
	return &IncrementalInfo{
		Mode:       st.Mode,
		Reason:     st.Reason,
		Retained:   st.Retained,
		Retracted:  st.Retracted,
		DirtyUnits: st.DirtyUnits,
	}
}

func optionsJSON(o gator.Options) OptionsJSON {
	ctx := ""
	if o.ContextSensitivity != gator.CtxOff {
		ctx = o.ContextSensitivity.String()
	}
	return OptionsJSON{
		FilterCasts:           o.FilterCasts,
		SharedInflation:       o.SharedInflation,
		NoFindView3Refinement: o.NoFindView3Refinement,
		DeclaredDispatchOnly:  o.DeclaredDispatchOnly,
		ContextSensitivity:    ctx,
		Provenance:            o.Provenance,
	}
}

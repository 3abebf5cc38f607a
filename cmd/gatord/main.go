// Command gatord is the analysis-as-a-service daemon: a long-running HTTP
// server exposing the full gator pipeline — cold submissions, cached
// replays and warm incremental sessions — to request/response clients
// (`gator -remote`, the Go client in internal/server, or plain curl).
// Request bodies carry the library's own types: gator.Options as
// "options" and report.Request's fields flat.
//
// Usage:
//
//	gatord [-addr :7465] [-workers N] [-queue N] [-job-timeout 60s]
//	       [-session-ttl 30m] [-max-sessions N] [-max-request-bytes N]
//	       [-drain-grace 30s] [-log-level info] [-log-format json]
//
// Endpoints (see README.md, "Server mode"):
//
//	POST   /v1/analyze        one-shot analysis (content-addressed replay)
//	POST   /v1/sessions       upload once, then …
//	PATCH  /v1/sessions/{id}  … patch files, warm incremental re-analysis
//	GET    /v1/sessions/{id}  session metadata
//	DELETE /v1/sessions/{id}  drop a session
//	GET    /healthz /readyz /metrics /metrics.json /debug/pprof/
//
// Telemetry: /metrics serves Prometheus text exposition (JSON at
// /metrics.json), and request logs are structured (-log-format
// json|text, -log-level).
//
// SIGINT/SIGTERM starts a graceful drain: /readyz flips to 503, queued
// jobs are rejected, in-flight jobs finish, then the listener closes.
//
// With -smoke the daemon exercises itself once end-to-end (cold request,
// session patches including an order: explain, drain) against the app
// directory argument and exits — the CI gate's server smoke test.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"gator/internal/server"
)

func main() {
	addr := flag.String("addr", ":7465", "listen address (host:port; port 0 picks a free port)")
	workers := flag.Int("workers", runtime.GOMAXPROCS(0), "concurrent analysis workers")
	queue := flag.Int("queue", 64, "admission queue depth (past it: 429 + Retry-After)")
	jobTimeout := flag.Duration("job-timeout", 60*time.Second, "per-job deadline, queue wait included (past it: 504)")
	sessionTTL := flag.Duration("session-ttl", 30*time.Minute, "evict sessions idle longer than this")
	maxSessions := flag.Int("max-sessions", 256, "max live sessions (past it: LRU eviction)")
	maxBytes := flag.Int64("max-request-bytes", 16<<20, "max request body bytes (past it: 413)")
	drainGrace := flag.Duration("drain-grace", 30*time.Second, "max time to wait for in-flight work on shutdown")
	logLevel := flag.String("log-level", "info", "request log level: debug, info, warn, error")
	logFormat := flag.String("log-format", "json", "request log format: json or text")
	smoke := flag.Bool("smoke", false, "self-test: serve on a free port, run a cold request and session patches against the app directory argument, drain, exit")
	flag.Parse()

	logger, err := newLogger(os.Stderr, *logLevel, *logFormat)
	if err != nil {
		fmt.Fprintln(os.Stderr, "gatord:", err)
		os.Exit(2)
	}

	cfg := server.Config{
		Workers:         *workers,
		QueueDepth:      *queue,
		JobTimeout:      *jobTimeout,
		SessionTTL:      *sessionTTL,
		MaxSessions:     *maxSessions,
		MaxRequestBytes: *maxBytes,
		Logger:          logger,
	}

	if *smoke {
		if flag.NArg() != 1 {
			fmt.Fprintln(os.Stderr, "gatord: -smoke wants exactly one app directory")
			os.Exit(2)
		}
		if err := runSmoke(cfg, flag.Arg(0)); err != nil {
			fmt.Fprintln(os.Stderr, "gatord: smoke:", err)
			os.Exit(1)
		}
		fmt.Println("gatord: smoke ok")
		return
	}

	srv, err := server.New(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "gatord:", err)
		os.Exit(1)
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "gatord:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "gatord: listening on %s\n", ln.Addr())

	httpSrv := &http.Server{Handler: srv.Handler()}

	// Reclaim abandoned sessions even when nobody touches the store.
	sweepStop := make(chan struct{})
	go func() {
		ticker := time.NewTicker(time.Minute)
		defer ticker.Stop()
		for {
			select {
			case <-sweepStop:
				return
			case <-ticker.C:
				srv.SweepSessions()
			}
		}
	}()

	// Graceful drain on SIGINT/SIGTERM: readiness flips first so load
	// balancers stop routing, then the job queue drains, then the
	// listener closes once in-flight responses are written.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	done := make(chan struct{})
	go func() {
		defer close(done)
		s := <-sig
		fmt.Fprintf(os.Stderr, "gatord: %v: draining\n", s)
		srv.Drain()
		ctx, cancel := context.WithTimeout(context.Background(), *drainGrace)
		defer cancel()
		if err := httpSrv.Shutdown(ctx); err != nil {
			fmt.Fprintln(os.Stderr, "gatord: shutdown:", err)
		}
	}()

	err = httpSrv.Serve(ln)
	close(sweepStop)
	if !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, "gatord:", err)
		os.Exit(1)
	}
	<-done
	fmt.Fprintln(os.Stderr, "gatord: drained, bye")
}

// newLogger builds the request logger from -log-level and -log-format,
// writing to w. level is one of "debug", "info", "warn", "error" (default
// info); format is "json" or "text" (default json), so a request line is
// one machine-parseable record by default.
func newLogger(w io.Writer, level, format string) (*slog.Logger, error) {
	var lvl slog.Level
	switch strings.ToLower(level) {
	case "", "info":
		lvl = slog.LevelInfo
	case "debug":
		lvl = slog.LevelDebug
	case "warn", "warning":
		lvl = slog.LevelWarn
	case "error":
		lvl = slog.LevelError
	default:
		return nil, fmt.Errorf("unknown log level %q (want debug, info, warn, or error)", level)
	}
	opts := &slog.HandlerOptions{Level: lvl}
	switch strings.ToLower(format) {
	case "", "json":
		return slog.New(slog.NewJSONHandler(w, opts)), nil
	case "text":
		return slog.New(slog.NewTextHandler(w, opts)), nil
	default:
		return nil, fmt.Errorf("unknown log format %q (want json or text)", format)
	}
}

package server

// A thin Go client for gatord. cmd/gator's -remote flag is built on it, so
// the CLI can act as a frontend to a warm daemon, and the server tests use
// it as their protocol reference.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"gator/internal/watch"
)

// StatusError is a non-2xx daemon response.
type StatusError struct {
	Code int
	Msg  string
	// RetryAfter is the server's backoff hint on 429 (0 when absent).
	RetryAfter time.Duration
}

func (e *StatusError) Error() string {
	return fmt.Sprintf("server: %d %s: %s", e.Code, http.StatusText(e.Code), e.Msg)
}

// Client talks to one gatord instance.
type Client struct {
	base string
	http *http.Client
}

// NewClient creates a client for the daemon at base (e.g.
// "http://127.0.0.1:7465"; a bare host:port gets the scheme prepended).
func NewClient(base string) *Client {
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	return &Client{base: strings.TrimRight(base, "/"), http: &http.Client{}}
}

// do sends one JSON round trip; out may be nil.
func (c *Client) do(method, path string, in, out any) error {
	var body io.Reader
	if in != nil {
		data, err := json.Marshal(in)
		if err != nil {
			return err
		}
		body = bytes.NewReader(data)
	}
	req, err := http.NewRequest(method, c.base+path, body)
	if err != nil {
		return err
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		se := &StatusError{Code: resp.StatusCode}
		var er ErrorResponse
		data, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
		if json.Unmarshal(data, &er) == nil && er.Error != "" {
			se.Msg = er.Error
		} else {
			se.Msg = strings.TrimSpace(string(data))
		}
		if secs, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil {
			se.RetryAfter = time.Duration(secs) * time.Second
		}
		return se
	}
	if out == nil {
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// Analyze submits one application for a cold (or cache-replayed) analysis.
func (c *Client) Analyze(req AnalyzeRequest) (*AnalyzeResponse, error) {
	var out AnalyzeResponse
	if err := c.do("POST", "/v1/analyze", req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// OpenSession uploads an application once and returns the session whose
// later patches get warm incremental re-analysis.
func (c *Client) OpenSession(req AnalyzeRequest) (*AnalyzeResponse, error) {
	var out AnalyzeResponse
	if err := c.do("POST", "/v1/sessions", req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// PatchSession applies an edit to a session and returns the re-analysis.
func (c *Client) PatchSession(id string, req PatchRequest) (*AnalyzeResponse, error) {
	var out AnalyzeResponse
	if err := c.do("PATCH", "/v1/sessions/"+id, req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// SessionInfo fetches a session's metadata.
func (c *Client) SessionInfo(id string) (*SessionInfo, error) {
	var out SessionInfo
	if err := c.do("GET", "/v1/sessions/"+id, nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// CloseSession deletes a session.
func (c *Client) CloseSession(id string) error {
	return c.do("DELETE", "/v1/sessions/"+id, nil, nil)
}

// Healthz checks liveness.
func (c *Client) Healthz() error { return c.do("GET", "/healthz", nil, nil) }

// Readyz checks readiness (a draining daemon fails this but not Healthz).
func (c *Client) Readyz() error { return c.do("GET", "/readyz", nil, nil) }

// Metrics fetches the daemon's metrics registry as deterministic JSON,
// from /metrics.json; /metrics itself serves Prometheus text exposition.
func (c *Client) Metrics() ([]byte, error) {
	return c.getRaw("/metrics.json")
}

// MetricsProm fetches the Prometheus text exposition of the daemon's
// metrics (what a scraper sees at /metrics).
func (c *Client) MetricsProm() ([]byte, error) {
	return c.getRaw("/metrics")
}

// getRaw fetches one endpoint's raw body, mapping non-200s to StatusError.
func (c *Client) getRaw(path string) ([]byte, error) {
	resp, err := c.http.Get(c.base + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, &StatusError{Code: resp.StatusCode}
	}
	return io.ReadAll(resp.Body)
}

// WatchSession is the remote analogue of `gator -watch`: it opens a
// session from dir's current content, then watches the directory and
// pushes each coalesced edit as a full-replacement patch, invoking fn with
// every response (the initial analysis included). It returns when stop
// closes, deleting the session on the way out. read is the directory
// loader (pass gator.ReadAppDir); the indirection keeps this package's
// watch plumbing decoupled from the root package.
func (c *Client) WatchSession(stop <-chan struct{}, dir string, cfg watch.Config, req AnalyzeRequest, read watch.ReadFunc, fn func(*AnalyzeResponse, error)) error {
	sources, layouts, err := read(dir)
	if err != nil {
		return err
	}
	req.Sources, req.Layouts = sources, layouts
	open, err := c.OpenSession(req)
	if err != nil {
		return err
	}
	fn(open, nil)
	defer c.CloseSession(open.SessionID)

	cfg.FireInitial = false
	watch.Watch(stop, dir, cfg, read, func(ev watch.Event) {
		if ev.Err != nil {
			fn(nil, ev.Err)
			return
		}
		resp, err := c.PatchSession(open.SessionID, PatchRequest{
			Sources:    ev.Sources,
			Layouts:    ev.Layouts,
			Replace:    true,
			ReportSpec: req.ReportSpec,
		})
		if err != nil {
			// A 404 means the session was evicted; recover by reopening.
			var se *StatusError
			if errors.As(err, &se) && se.Code == http.StatusNotFound {
				req.Sources, req.Layouts = ev.Sources, ev.Layouts
				reopened, rerr := c.OpenSession(req)
				if rerr == nil {
					open = reopened
					fn(reopened, nil)
					return
				}
				err = rerr
			}
			fn(nil, err)
			return
		}
		fn(resp, nil)
	})
	return nil
}

package server

// End-to-end tests of the daemon over real HTTP (httptest + the Go
// client). The load-bearing property is the byte-identity contract: every
// report served remotely — cold, cache-replayed, or from a warm session —
// must equal what the local library path renders for the same input. The
// concurrency tests run meaningfully under -race (scripts/ci.sh includes
// this package in the race set).

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"gator"
	"gator/internal/alite"
	"gator/internal/corpus"
	"gator/internal/report"
	"gator/internal/watch"
)

func newTestServer(t *testing.T, cfg Config) (*Server, *Client) {
	t.Helper()
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		srv.Drain()
		ts.Close()
	})
	return srv, NewClient(ts.URL)
}

// localRender is the reference implementation of every remote report: the
// same library calls a local CLI run makes, nothing shared with the server
// but the render path itself.
func localRender(t *testing.T, name string, sources, layouts map[string]string, opts gator.Options, req report.Request) (code int, out, errText string) {
	t.Helper()
	app, err := gator.Load(sources, layouts)
	if err != nil {
		t.Fatalf("local load: %v", err)
	}
	app.Name = name
	res := app.Analyze(opts)
	var outBuf, errBuf bytes.Buffer
	code = report.Render(&outBuf, &errBuf, name, res, req)
	return code, outBuf.String(), errBuf.String()
}

func figure1Maps() (sources, layouts map[string]string) {
	return map[string]string{"connectbot.alite": corpus.Figure1Source},
		map[string]string{
			"act_console":   corpus.Figure1ActConsoleXML,
			"item_terminal": corpus.Figure1ItemTerminalXML,
		}
}

// TestRemoteMatchesLocalConcurrent is the main differential test: several
// concurrent clients drive cold submissions, cache-replayed repeats, and
// warm session edit sequences, and every single response is byte-compared
// to the local pipeline.
func TestRemoteMatchesLocalConcurrent(t *testing.T) {
	_, c := newTestServer(t, Config{})

	kinds := []string{"views", "tuples", "hierarchy", "activities", "table1", "checks", "dot"}
	fig1Src, fig1Lay := figure1Maps()
	apps := []struct {
		name             string
		sources, layouts map[string]string
	}{
		{"figure1", fig1Src, fig1Lay},
	}
	for seed := int64(1); seed <= 3; seed++ {
		s, l := corpus.RandomApp(seed)
		apps = append(apps, struct {
			name             string
			sources, layouts map[string]string
		}{fmt.Sprintf("rand%d", seed), s, l})
	}

	const clients = 4
	var wg sync.WaitGroup
	for ci := 0; ci < clients; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			app := apps[ci%len(apps)]
			for _, kind := range kinds {
				req := AnalyzeRequest{
					Name:       app.name,
					Sources:    app.sources,
					Layouts:    app.layouts,
					ReportSpec: ReportSpec{Report: kind},
				}
				wantCode, wantOut, wantErr := localRender(t, app.name, app.sources, app.layouts,
					gator.Options{}, report.Request{Report: kind, Seed: 1})

				// Cold (or concurrently cache-warmed — either way the bytes
				// must match), then a repeat that may be served from cache.
				for round := 0; round < 2; round++ {
					resp, err := c.Analyze(req)
					if err != nil {
						t.Errorf("client %d %s/%s round %d: %v", ci, app.name, kind, round, err)
						return
					}
					if resp.Output != wantOut || resp.ExitCode != wantCode || resp.Stderr != wantErr {
						t.Errorf("client %d %s/%s round %d: remote report differs from local\nremote (exit %d):\n%s\nlocal (exit %d):\n%s",
							ci, app.name, kind, round, resp.ExitCode, resp.Output, wantCode, wantOut)
						return
					}
				}
			}

			// Session flow: open, then a sequence of edits; each response
			// must match a local scratch analysis of the patched input.
			sources := copyMap(app.sources)
			open, err := c.OpenSession(AnalyzeRequest{
				Name: app.name, Sources: sources, Layouts: app.layouts,
				ReportSpec: ReportSpec{Report: "views"},
			})
			if err != nil {
				t.Errorf("client %d open session: %v", ci, err)
				return
			}
			_, wantOut, _ := localRender(t, app.name, sources, app.layouts,
				gator.Options{}, report.Request{Report: "views", Seed: 1})
			if open.Output != wantOut {
				t.Errorf("client %d session create: remote differs from local", ci)
				return
			}
			var names []string
			for n := range sources {
				names = append(names, n)
			}
			for round := 0; round < 3; round++ {
				edited := names[round%len(names)]
				sources[edited] += fmt.Sprintf("\n// edit %d by client %d\n", round, ci)
				resp, err := c.PatchSession(open.SessionID, PatchRequest{
					Sources:    map[string]string{edited: sources[edited]},
					ReportSpec: ReportSpec{Report: "views"},
				})
				if err != nil {
					t.Errorf("client %d patch %d: %v", ci, round, err)
					return
				}
				if resp.Incremental == nil {
					t.Errorf("client %d patch %d: no incremental stats", ci, round)
					return
				}
				_, wantOut, _ := localRender(t, app.name, sources, app.layouts,
					gator.Options{}, report.Request{Report: "views", Seed: 1})
				if resp.Output != wantOut {
					t.Errorf("client %d patch %d (%s): warm remote report differs from local scratch\nremote:\n%s\nlocal:\n%s",
						ci, round, resp.Incremental.Mode, resp.Output, wantOut)
					return
				}
			}
			if err := c.CloseSession(open.SessionID); err != nil {
				t.Errorf("client %d close session: %v", ci, err)
			}
		}(ci)
	}
	wg.Wait()
}

// TestSessionPatchWarm pins that a body-only edit takes the warm path and
// that structural edits still produce correct (locally-identical) output.
func TestSessionPatchWarm(t *testing.T) {
	_, c := newTestServer(t, Config{})
	sources, layouts := corpus.ModularApp(6)

	open, err := c.OpenSession(AnalyzeRequest{
		Name: "modular", Sources: sources, Layouts: layouts,
		ReportSpec: ReportSpec{Report: "tuples"},
	})
	if err != nil {
		t.Fatal(err)
	}
	var file string
	for n := range sources {
		if file == "" || n < file {
			file = n
		}
	}

	// Body-only edit: append a comment. Must re-solve warm.
	sources[file] += "\n// warm edit\n"
	resp, err := c.PatchSession(open.SessionID, PatchRequest{
		Sources:    map[string]string{file: sources[file]},
		ReportSpec: ReportSpec{Report: "tuples"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Incremental == nil || resp.Incremental.Mode != "warm" {
		t.Fatalf("body-only edit mode = %+v, want warm", resp.Incremental)
	}
	_, want, _ := localRender(t, "modular", sources, layouts, gator.Options{},
		report.Request{Report: "tuples", Seed: 1})
	if resp.Output != want {
		t.Fatalf("warm patch output differs from local scratch\nremote:\n%s\nlocal:\n%s", resp.Output, want)
	}

	// Adding a file is a structural edit; output must still match local.
	const extra = "class ZzHelper {\n\tView held;\n\tvoid keep(View v) {\n\t\tthis.held = v;\n\t}\n}\n"
	sources["zz_extra.alite"] = extra
	resp, err = c.PatchSession(open.SessionID, PatchRequest{
		Sources:    map[string]string{"zz_extra.alite": extra},
		ReportSpec: ReportSpec{Report: "tuples"},
	})
	if err != nil {
		t.Fatal(err)
	}
	_, want, _ = localRender(t, "modular", sources, layouts, gator.Options{},
		report.Request{Report: "tuples", Seed: 1})
	if resp.Output != want {
		t.Fatalf("structural patch output differs from local\nremote:\n%s\nlocal:\n%s", resp.Output, want)
	}

	// So is removing it again.
	delete(sources, "zz_extra.alite")
	resp, err = c.PatchSession(open.SessionID, PatchRequest{
		RemoveSources: []string{"zz_extra.alite"},
		ReportSpec:    ReportSpec{Report: "tuples"},
	})
	if err != nil {
		t.Fatal(err)
	}
	_, want, _ = localRender(t, "modular", sources, layouts, gator.Options{},
		report.Request{Report: "tuples", Seed: 1})
	if resp.Output != want {
		t.Fatalf("removal patch output differs from local\nremote:\n%s\nlocal:\n%s", resp.Output, want)
	}

	info, err := c.SessionInfo(open.SessionID)
	if err != nil {
		t.Fatal(err)
	}
	if info.Patches != 3 {
		t.Fatalf("session patches = %d, want 3", info.Patches)
	}
}

// TestSessionConcurrentPatches: patches racing on one session serialize
// on its lock — each re-solves from the previous patch's result, none sees
// a consumed one — and the session ends with every edit applied.
func TestSessionConcurrentPatches(t *testing.T) {
	_, c := newTestServer(t, Config{Workers: 2})
	sources, layouts := corpus.ModularApp(6)
	open, err := c.OpenSession(AnalyzeRequest{Name: "modular", Sources: sources, Layouts: layouts})
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for n := range sources {
		names = append(names, n)
	}
	sort.Strings(names)
	names = names[:4]
	for _, n := range names {
		sources[n] += "\n// concurrent edit\n"
	}

	var wg sync.WaitGroup
	for _, n := range names {
		wg.Add(1)
		go func(n string) {
			defer wg.Done()
			resp, err := c.PatchSession(open.SessionID, PatchRequest{Sources: map[string]string{n: sources[n]}})
			if err != nil {
				t.Errorf("patch %s: %v", n, err)
				return
			}
			if resp.Incremental == nil || resp.Incremental.Mode != "warm" {
				t.Errorf("patch %s: %+v, want warm", n, resp.Incremental)
			}
		}(n)
	}
	wg.Wait()

	resp, err := c.PatchSession(open.SessionID, PatchRequest{ReportSpec: ReportSpec{Report: "tuples"}})
	if err != nil {
		t.Fatal(err)
	}
	_, want, _ := localRender(t, "modular", sources, layouts, gator.Options{}, report.Request{Report: "tuples"})
	if resp.Incremental == nil || resp.Incremental.Mode != "unchanged" || resp.Output != want {
		t.Fatalf("after concurrent patches: %+v, output differs from local: %v", resp.Incremental, resp.Output != want)
	}
	if info, err := c.SessionInfo(open.SessionID); err != nil || info.Patches != len(names)+1 {
		t.Fatalf("session info %+v, %v; want %d patches", info, err, len(names)+1)
	}
}

// TestSessionPatchParseErrorKeepsSession verifies a mid-edit syntax error
// maps to 422 and the session stays usable (the next good patch is warm
// relative to the last good solution).
func TestSessionPatchParseErrorKeepsSession(t *testing.T) {
	_, c := newTestServer(t, Config{})
	sources, layouts := figure1Maps()

	open, err := c.OpenSession(AnalyzeRequest{Name: "figure1", Sources: sources, Layouts: layouts})
	if err != nil {
		t.Fatal(err)
	}
	_, err = c.PatchSession(open.SessionID, PatchRequest{
		Sources: map[string]string{"connectbot.alite": "class {{{"},
	})
	var se *StatusError
	if !errors.As(err, &se) || se.Code != http.StatusUnprocessableEntity {
		t.Fatalf("broken patch: %v, want 422", err)
	}

	// The bad patch must not have replaced the session's inputs.
	sources["connectbot.alite"] += "\n// recovered\n"
	resp, err := c.PatchSession(open.SessionID, PatchRequest{
		Sources:    map[string]string{"connectbot.alite": sources["connectbot.alite"]},
		ReportSpec: ReportSpec{Report: "views"},
	})
	if err != nil {
		t.Fatalf("patch after parse error: %v", err)
	}
	_, want, _ := localRender(t, "figure1", sources, layouts, gator.Options{},
		report.Request{Report: "views", Seed: 1})
	if resp.Output != want {
		t.Fatalf("post-recovery output differs from local\nremote:\n%s\nlocal:\n%s", resp.Output, want)
	}
}

// TestExplainRemote checks the provenance query surface end to end.
func TestExplainRemote(t *testing.T) {
	_, c := newTestServer(t, Config{})
	sources, layouts := figure1Maps()
	spec := ReportSpec{Explain: "id:console_flip"}

	resp, err := c.Analyze(AnalyzeRequest{Name: "figure1", Sources: sources, Layouts: layouts, ReportSpec: spec})
	if err != nil {
		t.Fatal(err)
	}
	wantCode, want, _ := localRender(t, "figure1", sources, layouts,
		gator.Options{Provenance: true}, report.Request{Explain: "id:console_flip", Seed: 1})
	if resp.Output != want || resp.ExitCode != wantCode {
		t.Fatalf("remote explain differs from local\nremote (exit %d):\n%s\nlocal (exit %d):\n%s",
			resp.ExitCode, resp.Output, wantCode, want)
	}
	if resp.Cached {
		t.Fatal("explain responses must never be cache replays")
	}
}

// TestCacheReplayMarksCached pins the Cached flag and that replays carry
// the exit code of the original render.
func TestCacheReplayMarksCached(t *testing.T) {
	dir := t.TempDir()
	_, c := newTestServer(t, Config{CacheDir: dir})
	sources, layouts := figure1Maps()
	req := AnalyzeRequest{Name: "figure1", Sources: sources, Layouts: layouts,
		ReportSpec: ReportSpec{Report: "views"}}

	first, err := c.Analyze(req)
	if err != nil {
		t.Fatal(err)
	}
	if first.Cached {
		t.Fatal("first request reported Cached")
	}
	second, err := c.Analyze(req)
	if err != nil {
		t.Fatal(err)
	}
	if !second.Cached {
		t.Fatal("second identical request was not a cache replay")
	}
	if second.Output != first.Output || second.ExitCode != first.ExitCode {
		t.Fatal("cache replay altered the response")
	}

	// NoCache forces a fresh solve.
	req.NoCache = true
	third, err := c.Analyze(req)
	if err != nil {
		t.Fatal(err)
	}
	if third.Cached {
		t.Fatal("NoCache request reported Cached")
	}
	if third.Output != first.Output {
		t.Fatal("fresh solve differs from original")
	}
}

// TestDrainSemantics verifies the shutdown contract over HTTP: /readyz
// flips, in-flight jobs finish, and new work is rejected with 503.
func TestDrainSemantics(t *testing.T) {
	srv, c := newTestServer(t, Config{Workers: 1, QueueDepth: 4})
	sources, layouts := figure1Maps()

	if err := c.Readyz(); err != nil {
		t.Fatalf("readyz before drain: %v", err)
	}

	// Park a blocking job on the only worker so drain has something
	// genuinely in flight.
	gate := make(chan struct{})
	started := make(chan struct{})
	inflight := &job{ctx: context.Background(), fn: func() { close(started); <-gate }, done: make(chan struct{})}
	if err := srv.jobs.submit(inflight); err != nil {
		t.Fatal(err)
	}
	<-started

	drained := make(chan struct{})
	go func() { srv.Drain(); close(drained) }()

	// Readiness flips immediately, even while the drain blocks on the
	// in-flight job.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if err := c.Readyz(); err != nil {
			var se *StatusError
			if !errors.As(err, &se) || se.Code != http.StatusServiceUnavailable {
				t.Fatalf("readyz during drain: %v, want 503", err)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("readyz never flipped during drain")
		}
		time.Sleep(time.Millisecond)
	}

	// New work is rejected while draining.
	_, err := c.Analyze(AnalyzeRequest{Name: "figure1", Sources: sources, Layouts: layouts})
	var se *StatusError
	if !errors.As(err, &se) || se.Code != http.StatusServiceUnavailable {
		t.Fatalf("analyze during drain: %v, want 503", err)
	}

	select {
	case <-drained:
		t.Fatal("drain returned while a job was in flight")
	default:
	}
	close(gate)
	select {
	case <-drained:
	case <-time.After(10 * time.Second):
		t.Fatal("drain never finished")
	}
	if err := waitDone(t, inflight); err != nil {
		t.Fatalf("in-flight job during drain: %v, want nil", err)
	}
}

// TestBackpressure429 fills the worker and the queue, then checks the HTTP
// mapping: 429 with a one-second Retry-After hint.
func TestBackpressure429(t *testing.T) {
	srv, c := newTestServer(t, Config{Workers: 1, QueueDepth: 1})
	sources, layouts := figure1Maps()

	gate := make(chan struct{})
	defer close(gate)
	started := make(chan struct{})
	inflight := &job{ctx: context.Background(), fn: func() { close(started); <-gate }, done: make(chan struct{})}
	if err := srv.jobs.submit(inflight); err != nil {
		t.Fatal(err)
	}
	<-started
	filler := &job{ctx: context.Background(), fn: func() {}, done: make(chan struct{})}
	if err := srv.jobs.submit(filler); err != nil {
		t.Fatal(err)
	}

	_, err := c.Analyze(AnalyzeRequest{Name: "figure1", Sources: sources, Layouts: layouts})
	var se *StatusError
	if !errors.As(err, &se) || se.Code != http.StatusTooManyRequests {
		t.Fatalf("analyze with full queue: %v, want 429", err)
	}
	if se.RetryAfter != time.Second {
		t.Fatalf("Retry-After = %v, want 1s", se.RetryAfter)
	}
}

// TestSessionEviction covers both bounds: the LRU count cap and the idle
// TTL (via the sweeper, as the daemon runs it).
func TestSessionEviction(t *testing.T) {
	srv, c := newTestServer(t, Config{MaxSessions: 2, SessionTTL: 50 * time.Millisecond})
	sources, layouts := figure1Maps()
	open := func() string {
		t.Helper()
		resp, err := c.OpenSession(AnalyzeRequest{Name: "figure1", Sources: sources, Layouts: layouts})
		if err != nil {
			t.Fatal(err)
		}
		return resp.SessionID
	}

	s1, s2 := open(), open()
	if _, err := c.SessionInfo(s1); err != nil { // bumps s1's recency over s2
		t.Fatal(err)
	}
	s3 := open() // over cap: evicts s2, the least recently used
	if _, err := c.SessionInfo(s2); !is404(err) {
		t.Fatalf("lru-evicted session: %v, want 404", err)
	}
	for _, id := range []string{s1, s3} {
		if _, err := c.SessionInfo(id); err != nil {
			t.Fatalf("surviving session %s: %v", id, err)
		}
	}

	time.Sleep(80 * time.Millisecond)
	if n := srv.SweepSessions(); n != 2 {
		t.Fatalf("sweep evicted %d sessions, want 2", n)
	}
	if _, err := c.SessionInfo(s1); !is404(err) {
		t.Fatalf("idle-expired session: %v, want 404", err)
	}
}

func is404(err error) bool {
	var se *StatusError
	return errors.As(err, &se) && se.Code == http.StatusNotFound
}

// TestRequestLimitsAndErrors covers the request-shape error surface.
func TestRequestLimitsAndErrors(t *testing.T) {
	_, c := newTestServer(t, Config{MaxRequestBytes: 1024})
	sources, layouts := figure1Maps()

	// Oversized body → 413.
	big := map[string]string{"big.alite": strings.Repeat("// pad\n", 400)}
	_, err := c.Analyze(AnalyzeRequest{Sources: big})
	var se *StatusError
	if !errors.As(err, &se) || se.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized request: %v, want 413", err)
	}

	// Unknown report kind → 400.
	_, err = c.Analyze(AnalyzeRequest{Sources: map[string]string{"a.alite": ""},
		ReportSpec: ReportSpec{Report: "nope"}})
	if !errors.As(err, &se) || se.Code != http.StatusBadRequest {
		t.Fatalf("unknown report: %v, want 400", err)
	}

	// Unknown context-sensitivity mode, including the removed "1obj" → 400
	// naming the known modes (never silently insensitive).
	for _, mode := range []string{"2cfa", "1obj"} {
		err = c.do("POST", "/v1/analyze", json.RawMessage(
			`{"sources":{"a.alite":""},"options":{"contextSensitivity":"`+mode+`"}}`), nil)
		if !errors.As(err, &se) || se.Code != http.StatusBadRequest || !strings.Contains(se.Msg, "known: off, 1cfa") {
			t.Fatalf("context mode %q: %v, want 400 naming off and 1cfa", mode, err)
		}
	}

	// Empty request → 400.
	_, err = c.Analyze(AnalyzeRequest{})
	if !errors.As(err, &se) || se.Code != http.StatusBadRequest {
		t.Fatalf("empty request: %v, want 400", err)
	}

	// The removed "context1" wire option is an unknown field → 400, never
	// a silent context-insensitive run ("contextSensitivity":"1cfa"
	// replaces it).
	resp, err := http.Post(c.base+"/v1/analyze", "application/json",
		strings.NewReader(`{"sources":{"a.alite":"class A {}"},"options":{"context1":true}}`))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), `unknown field \"context1\"`) {
		t.Fatalf("removed context1 option: %d %s, want 400 naming the unknown field", resp.StatusCode, body)
	}

	// Unparsable source → 422.
	_, err = c.Analyze(AnalyzeRequest{Sources: map[string]string{"bad.alite": "class {{{"}})
	if !errors.As(err, &se) || se.Code != http.StatusUnprocessableEntity {
		t.Fatalf("broken source: %v, want 422", err)
	}

	// Unknown session → 404, on every session verb.
	if _, err := c.SessionInfo("deadbeef"); !is404(err) {
		t.Fatalf("info on unknown session: %v, want 404", err)
	}
	if _, err := c.PatchSession("deadbeef", PatchRequest{}); !is404(err) {
		t.Fatalf("patch on unknown session: %v, want 404", err)
	}
	if err := c.CloseSession("deadbeef"); !is404(err) {
		t.Fatalf("delete of unknown session: %v, want 404", err)
	}

	// A well-formed request still succeeds under the small body limit? No —
	// figure1 exceeds 1KiB; just check health endpoints are unaffected.
	_ = sources
	_ = layouts
	if err := c.Healthz(); err != nil {
		t.Fatal(err)
	}
}

// TestTooDeepSourceIs422: source nested past the parser's limit is a 422
// with a positioned error, and the daemon and its warm sessions live on —
// unbounded nesting would overflow the goroutine stack, a fatal error that
// kills the whole process.
func TestTooDeepSourceIs422(t *testing.T) {
	_, c := newTestServer(t, Config{})
	sources, layouts := corpus.ModularApp(2)
	open, err := c.OpenSession(AnalyzeRequest{Name: "modular", Sources: sources, Layouts: layouts})
	if err != nil {
		t.Fatal(err)
	}

	n := 2 * alite.MaxNesting
	deep := "class A extends Activity {\n\tvoid onCreate() {\n\t\tView x = " +
		strings.Repeat("(", n) + "this" + strings.Repeat(")", n) + ";\n\t}\n}\n"
	_, err = c.Analyze(AnalyzeRequest{Sources: map[string]string{"deep.alite": deep}})
	var se *StatusError
	if !errors.As(err, &se) || se.Code != http.StatusUnprocessableEntity ||
		!strings.Contains(se.Msg, "deep.alite:3:") || !strings.Contains(se.Msg, "nesting deeper than") {
		t.Fatalf("too-deep source: %v, want 422 with a positioned nesting error", err)
	}

	if _, err := c.Analyze(AnalyzeRequest{Name: "m", Sources: sources, Layouts: layouts}); err != nil {
		t.Fatalf("analyze after the too-deep request: %v", err)
	}
	resp, err := c.PatchSession(open.SessionID, PatchRequest{
		Sources: map[string]string{"act1.alite": sources["act1.alite"] + "\n// edit\n"},
	})
	if err != nil {
		t.Fatalf("patch after the too-deep request: %v", err)
	}
	if resp.Incremental == nil || resp.Incremental.Mode != "warm" {
		t.Fatalf("patch mode = %+v, want warm", resp.Incremental)
	}
}

// TestInvalidCharacterRunIs4xx: a 3 MiB run of characters the lexer
// rejects is a 4xx with a positioned error, and the daemon answers the next
// request. A lexer that recursed once per such character overflowed the
// goroutine stack on this body, a fatal error that killed the process.
func TestInvalidCharacterRunIs4xx(t *testing.T) {
	_, c := newTestServer(t, Config{})
	body := strings.Repeat("#", 3<<20)
	_, err := c.Analyze(AnalyzeRequest{Sources: map[string]string{"hash.alite": body}})
	var se *StatusError
	if !errors.As(err, &se) || se.Code < 400 || se.Code >= 500 ||
		!strings.Contains(se.Msg, "hash.alite:1:1: unexpected character '#'") {
		t.Fatalf("invalid-character run: %v, want a 4xx with a positioned lexical error", err)
	}
	sources, layouts := figure1Maps()
	if _, err := c.Analyze(AnalyzeRequest{Name: "fig1", Sources: sources, Layouts: layouts}); err != nil {
		t.Fatalf("analyze after the invalid-character run: %v", err)
	}
}

// TestMetricsEndpoint checks /metrics is deterministic, valid JSON with the
// job counters present.
func TestMetricsEndpoint(t *testing.T) {
	_, c := newTestServer(t, Config{})
	sources, layouts := figure1Maps()
	if _, err := c.Analyze(AnalyzeRequest{Name: "m", Sources: sources, Layouts: layouts}); err != nil {
		t.Fatal(err)
	}

	data, err := c.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatalf("metrics is not valid JSON: %v\n%s", err, data)
	}
	for _, key := range []string{"server.jobs.admitted", "server.analyze.requests"} {
		if !strings.Contains(string(data), key) {
			t.Fatalf("metrics lacks %s:\n%s", key, data)
		}
	}
	again, err := c.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, again) {
		t.Fatal("metrics JSON is not deterministic across idle fetches")
	}
}

// TestWatchSessionRefresh exercises the client-side session-refresh helper
// against a real directory: an edit on disk is debounced into one PATCH
// whose report matches local analysis of the final content.
func TestWatchSessionRefresh(t *testing.T) {
	_, c := newTestServer(t, Config{})
	dir := t.TempDir()
	sources, layouts := figure1Maps()
	writeAppDir(t, dir, sources, layouts)

	stop := make(chan struct{})
	type outcome struct {
		resp *AnalyzeResponse
		err  error
	}
	got := make(chan outcome, 16)
	watchDone := make(chan error, 1)
	go func() {
		watchDone <- c.WatchSession(stop, dir, watch.Config{Poll: 10 * time.Millisecond, Settle: 30 * time.Millisecond},
			AnalyzeRequest{Name: "watched", ReportSpec: ReportSpec{Report: "views"}},
			gator.ReadAppDir,
			func(r *AnalyzeResponse, err error) { got <- outcome{r, err} })
	}()

	// The initial session-open response.
	first := <-got
	if first.err != nil {
		t.Fatal(first.err)
	}
	_, want, _ := localRender(t, "watched", sources, layouts, gator.Options{},
		report.Request{Report: "views", Seed: 1})
	if first.resp.Output != want {
		t.Fatal("initial watch response differs from local")
	}

	// A burst of writes must coalesce into (at least one, normally one)
	// refresh whose final state matches the last write.
	sources["connectbot.alite"] += "\n// watch edit 1\n"
	writeAppDir(t, dir, sources, layouts)
	sources["connectbot.alite"] += "// watch edit 2\n"
	writeAppDir(t, dir, sources, layouts)

	deadline := time.After(10 * time.Second)
	_, want, _ = localRender(t, "watched", sources, layouts, gator.Options{},
		report.Request{Report: "views", Seed: 1})
	for {
		select {
		case o := <-got:
			if o.err != nil {
				t.Fatal(o.err)
			}
			if o.resp.Output == want {
				close(stop)
				if err := <-watchDone; err != nil {
					t.Fatal(err)
				}
				return
			}
		case <-deadline:
			t.Fatal("watch refresh never converged on the edited content")
		}
	}
}

func writeAppDir(t *testing.T, dir string, sources, layouts map[string]string) {
	t.Helper()
	for name, src := range sources {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if len(layouts) > 0 {
		if err := os.MkdirAll(filepath.Join(dir, "layout"), 0o755); err != nil {
			t.Fatal(err)
		}
		for name, xml := range layouts {
			if err := os.WriteFile(filepath.Join(dir, "layout", name+".xml"), []byte(xml), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
}

package main

// The -smoke self-test: boot the daemon on a loopback port, drive it
// through one cold submission and a session's patches with the Go client
// — a body edit, an order: explain and a second body edit that must stay
// warm — check each against a locally computed report (the remote ≡ local
// byte-identity contract), then drain and verify the shutdown semantics.
// scripts/ci.sh runs this as the server smoke gate.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sort"
	"time"

	"gator"
	"gator/internal/metrics"
	"gator/internal/report"
	"gator/internal/server"
	"gator/internal/trace"
)

// localReport renders the same report the server is asked for, through the
// same library path a local CLI run takes, and returns the result it
// rendered from.
func localReport(name string, sources, layouts map[string]string, req report.Request) (string, *gator.Result, error) {
	app, err := gator.Load(sources, layouts)
	if err != nil {
		return "", nil, err
	}
	app.Name = name
	res := app.Analyze(gator.Options{})
	var out, errBuf bytes.Buffer
	if code := report.Render(&out, &errBuf, name, res, req); code != 0 {
		return "", nil, fmt.Errorf("local render exited %d: %s", code, errBuf.String())
	}
	return out.String(), res, nil
}

func runSmoke(cfg server.Config, dir string) error {
	srv, err := server.New(cfg)
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	httpSrv := &http.Server{Handler: srv.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	c := server.NewClient(ln.Addr().String())
	if err := c.Healthz(); err != nil {
		return fmt.Errorf("healthz: %w", err)
	}
	if err := c.Readyz(); err != nil {
		return fmt.Errorf("readyz: %w", err)
	}
	sources, layouts, err := gator.ReadAppDir(dir)
	if err != nil {
		return err
	}
	spec := server.ReportSpec{Report: "views"}

	// Cold submission: the rendered report must be byte-identical to the
	// local pipeline's.
	cold, err := c.Analyze(server.AnalyzeRequest{
		Name:       "smoke",
		Sources:    sources,
		Layouts:    layouts,
		ReportSpec: spec,
	})
	if err != nil {
		return fmt.Errorf("cold analyze: %w", err)
	}
	want, res, err := localReport("smoke", sources, layouts, spec)
	if err != nil {
		return err
	}
	if cold.Output != want {
		return fmt.Errorf("cold report differs from local output\nremote:\n%s\nlocal:\n%s", cold.Output, want)
	}
	fmt.Printf("gatord: smoke: cold request ok (%d bytes, exit %d)\n", len(cold.Output), cold.ExitCode)

	// Session + incremental patch: append a comment to one source file (a
	// body-only edit) and check the warm re-analysis against a local
	// scratch solve of the edited input — PR 4's differential tests prove
	// warm ≡ scratch, so this also cross-checks the session plumbing.
	open, err := c.OpenSession(server.AnalyzeRequest{
		Name:       "smoke",
		Sources:    sources,
		Layouts:    layouts,
		ReportSpec: spec,
	})
	if err != nil {
		return fmt.Errorf("open session: %w", err)
	}
	var names []string
	for n := range sources {
		names = append(names, n)
	}
	sort.Strings(names)
	edited := names[0]
	newSrc := sources[edited] + "\n// gatord smoke edit\n"
	patch, err := c.PatchSession(open.SessionID, server.PatchRequest{
		Sources:    map[string]string{edited: newSrc},
		ReportSpec: spec,
	})
	if err != nil {
		return fmt.Errorf("patch session: %w", err)
	}
	editedSources := map[string]string{}
	for n, s := range sources {
		editedSources[n] = s
	}
	editedSources[edited] = newSrc
	want, _, err = localReport("smoke", editedSources, layouts, spec)
	if err != nil {
		return err
	}
	if patch.Output != want {
		return fmt.Errorf("incremental report differs from local output\nremote:\n%s\nlocal:\n%s", patch.Output, want)
	}
	if patch.Incremental == nil {
		return errors.New("patch response lacks incremental stats")
	}
	fmt.Printf("gatord: smoke: incremental request ok (mode=%s, %d bytes)\n",
		patch.Incremental.Mode, len(patch.Output))

	// An order: explain is answered from the lifecycle table, so the
	// session needs no provenance for it and its next body edit still
	// re-solves warm.
	acts := res.Activities()
	if len(acts) == 0 {
		return errors.New("smoke app has no activity to explain an ordering of")
	}
	order := server.ReportSpec{Explain: "order:" + acts[0].Activity + ".onDestroy.onResume"}
	explained, err := c.PatchSession(open.SessionID, server.PatchRequest{ReportSpec: order})
	if err != nil {
		return fmt.Errorf("patch with %s: %w", order.Explain, err)
	}
	if want, _, err = localReport("smoke", editedSources, layouts, order); err != nil {
		return err
	}
	if explained.Output != want {
		return fmt.Errorf("%s differs from local output\nremote:\n%s\nlocal:\n%s", order.Explain, explained.Output, want)
	}
	editedSources[edited] += "// gatord smoke edit 2\n"
	again, err := c.PatchSession(open.SessionID, server.PatchRequest{
		Sources:    map[string]string{edited: editedSources[edited]},
		ReportSpec: spec,
	})
	if err != nil {
		return fmt.Errorf("patch after %s: %w", order.Explain, err)
	}
	if again.Incremental == nil || again.Incremental.Mode != "warm" {
		return fmt.Errorf("body edit after %s was not warm: %+v", order.Explain, again.Incremental)
	}
	if want, _, err = localReport("smoke", editedSources, layouts, spec); err != nil {
		return err
	}
	if again.Output != want {
		return fmt.Errorf("warm report after %s differs from local output\nremote:\n%s\nlocal:\n%s", order.Explain, again.Output, want)
	}
	fmt.Printf("gatord: smoke: %s ok (%d bytes), next body edit warm\n", order.Explain, len(explained.Output))
	if err := c.CloseSession(open.SessionID); err != nil {
		return fmt.Errorf("close session: %w", err)
	}

	// Telemetry: the Prometheus exposition must parse and carry the
	// request counters and, after the cold request, the session create and
	// the warm patch, a stage_duration_us series for every stage.
	prom, err := c.MetricsProm()
	if err != nil {
		return fmt.Errorf("scrape /metrics: %w", err)
	}
	fams, err := metrics.ParsePrometheus(prom)
	if err != nil {
		return fmt.Errorf("/metrics is not valid Prometheus text: %w", err)
	}
	if _, ok := fams["gatord_http_requests_total"]; !ok {
		return errors.New("/metrics lacks gatord_http_requests_total")
	}
	observed := map[string]bool{}
	if fam := fams["gatord_stage_duration_us"]; fam != nil {
		for _, s := range fam.Samples {
			observed[s.Labels["stage"]] = true
		}
	}
	for _, st := range trace.Stages {
		if !observed[st] {
			return fmt.Errorf("/metrics lacks a gatord_stage_duration_us series for stage %q", st)
		}
	}
	fmt.Printf("gatord: smoke: telemetry ok (%d metric families)\n", len(fams))

	// Drain: readiness must flip, new work must be rejected, and the
	// listener must close cleanly.
	srv.Drain()
	if err := c.Readyz(); err == nil {
		return errors.New("readyz still ok after drain")
	}
	if _, err := c.Analyze(server.AnalyzeRequest{Sources: sources}); err == nil {
		return errors.New("analyze accepted after drain")
	}
	shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutCtx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	if err := <-serveErr; !errors.Is(err, http.ErrServerClosed) {
		return fmt.Errorf("serve: %w", err)
	}
	fmt.Println("gatord: smoke: drain + clean shutdown ok")
	return nil
}

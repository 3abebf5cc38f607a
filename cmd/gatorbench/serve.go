package main

// BENCH_5, the server record: the serving layer's cost, as a client sees
// it over real loopback HTTP. Two quantities are recorded:
//
//   - cold request latency percentiles: every request carries a distinct
//     application, so each one pays upload + parse + solve + render;
//   - the session speedup: the same alternating single-file edit sequence
//     BENCH_4 uses, once as stateless /v1/analyze submissions (re-upload +
//     scratch solve per edit) and once as PATCHes to a warm session. The
//     ratio is what sessions exist to buy; its floor is 3x, lower than
//     BENCH_4's library-level 5x because both sides carry HTTP and JSON
//     overhead, which the warm path cannot amortize away.
//
// The ratio is same-process, same-machine, so it is stable across runner
// hardware in a way absolute milliseconds are not; the percentiles are
// recorded for trend reading, not gating.

import (
	"fmt"
	"math"
	"sort"
	"time"

	"gator/internal/corpus"
	"gator/internal/metrics"
	"gator/internal/server"
)

func measureServe(workers int) (*metrics.Record, error) {
	c, stop, err := loopbackDaemon(server.Config{Workers: workers})
	if err != nil {
		return nil, err
	}
	defer stop()

	// Cold latency percentiles: distinct random apps so the content-
	// addressed caches never short-circuit the measurement.
	const coldReqs = 50
	lats := make([]time.Duration, 0, coldReqs)
	for i := 0; i < coldReqs; i++ {
		sources, layouts := corpus.RandomApp(int64(1000 + i))
		start := time.Now()
		if _, err := c.Analyze(server.AnalyzeRequest{
			Name:       fmt.Sprintf("cold%d", i),
			Sources:    sources,
			Layouts:    layouts,
			ReportSpec: server.ReportSpec{Report: "views"},
		}); err != nil {
			return nil, fmt.Errorf("cold request %d: %w", i, err)
		}
		lats = append(lats, time.Since(start))
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	p50 := lats[len(lats)/2]
	p99 := lats[(len(lats)*99)/100]

	// Warm-session speedup over BENCH_4's edit sequence. Both sides render
	// the cheap "summary" report so the comparison isolates what sessions
	// change — upload + solve — rather than report rendering, which is
	// identical work on either path.
	const nActs = 30 // keep in sync with measureIncremental
	const edits = 20
	sources, layouts := corpus.ModularApp(nActs)
	base, variants := sources["act1.alite"], corpus.ModularEdits(sources)

	// Stateless baseline: each edit as a full /v1/analyze submission.
	// NoCache keeps the result caches out of it — the point of comparison
	// is "no session state on the server", not "no caching anywhere".
	stateless := time.Duration(math.MaxInt64)
	for i := 0; i < edits; i++ {
		sources["act1.alite"] = variants[i%2]
		start := time.Now()
		if _, err := c.Analyze(server.AnalyzeRequest{
			Name: "edited", Sources: sources, Layouts: layouts,
			ReportSpec: server.ReportSpec{Report: "summary"},
			NoCache:    true,
		}); err != nil {
			return nil, fmt.Errorf("stateless edit %d: %w", i, err)
		}
		stateless = min(stateless, time.Since(start))
	}

	// Warm path: one upload, then per-edit PATCHes against the session.
	sources["act1.alite"] = base
	open, err := c.OpenSession(server.AnalyzeRequest{
		Name: "edited", Sources: sources, Layouts: layouts,
		ReportSpec: server.ReportSpec{Report: "summary"},
	})
	if err != nil {
		return nil, fmt.Errorf("open session: %w", err)
	}
	warm := time.Duration(math.MaxInt64)
	for i := 0; i < edits; i++ {
		start := time.Now()
		resp, err := c.PatchSession(open.SessionID, server.PatchRequest{
			Sources:    map[string]string{"act1.alite": variants[i%2]},
			ReportSpec: server.ReportSpec{Report: "summary"},
		})
		if err != nil {
			return nil, fmt.Errorf("session edit %d: %w", i, err)
		}
		if resp.Incremental == nil || resp.Incremental.Mode != "warm" {
			return nil, fmt.Errorf("edit %d fell off the warm path: %+v", i, resp.Incremental)
		}
		warm = min(warm, time.Since(start))
	}

	return &metrics.Record{
		Metrics: []metrics.Metric{
			metric("session_speedup", "x", "higher", float64(stateless)/float64(warm), metrics.Relative(0.15), metrics.Floor(3)),
			metric("cold_p50_ms", "ms", "lower", ms(p50)),
			metric("cold_p99_ms", "ms", "lower", ms(p99)),
			metric("stateless_ms", "ms", "lower", ms(stateless)),
			metric("session_ms", "ms", "lower", ms(warm)),
		},
		Detail: map[string]any{"workers": workers, "requests": coldReqs, "app": fmt.Sprintf("modular-%d", nActs), "edits": edits},
	}, nil
}

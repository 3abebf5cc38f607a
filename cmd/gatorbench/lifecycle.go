package main

import (
	"fmt"

	"gator/internal/analysis"
	"gator/internal/core"
	"gator/internal/corpus"
	"gator/internal/ir"
	"gator/internal/metrics"
)

// lifeScenario is one synthesized ordering scenario's outcome: whether the
// seeded bug's checker located it, and how many lifecycle findings its
// clean twin (same shape, legal ordering) produced.
type lifeScenario struct {
	Name          string `json:"name"`
	Bug           string `json:"bug"`
	Depth         int    `json:"depth"`
	Branch        bool   `json:"branch"`
	Detected      bool   `json:"detected"`
	CleanFindings int    `json:"cleanFindings"`
}

// lifecycleFindings analyzes one scenario app and counts its lifecycle-*
// findings by checker ID.
func lifecycleFindings(app *corpus.App) (map[string]int, error) {
	p, err := ir.Build(app.FreshFiles(), app.FreshLayouts())
	if err != nil {
		return nil, fmt.Errorf("%s: %v", app.Name, err)
	}
	res := core.Analyze(p, core.Options{})
	rep, err := analysis.Run(app.Name, res, analysis.Options{Checks: []string{"lifecycle-*"}})
	if err != nil {
		return nil, err
	}
	counts := map[string]int{}
	for _, f := range rep.Findings {
		counts[f.Check]++
	}
	return counts, nil
}

// measureLifecycle is BENCH_10: the ordering-bug scenario pack (24 seeded
// bugs plus their clean twins, same helper/branch shape with legal callback
// placement) through the lifecycle checkers. Each checker's recall must stay
// at or above 0.9, and its clean twins must produce no finding (any is a
// false positive by construction). Both are deterministic counts over
// generated apps, so the gates are absolute, not relative to the baseline.
func measureLifecycle(int) (*metrics.Record, error) {
	type counts struct{ seeded, detected, clean int }
	byChecker := map[string]*counts{}
	var checkers []string // in first-seen (pack) order
	var scenarios []lifeScenario
	for _, spec := range corpus.ScenarioPack(24) {
		id := spec.Bug.CheckerID()
		agg := byChecker[id]
		if agg == nil {
			agg = &counts{}
			byChecker[id] = agg
			checkers = append(checkers, id)
		}
		buggy, err := lifecycleFindings(corpus.GenerateScenario(spec))
		if err != nil {
			return nil, err
		}
		clean, err := lifecycleFindings(corpus.GenerateScenario(spec.CleanTwin()))
		if err != nil {
			return nil, err
		}
		cleanTotal := 0
		for _, c := range clean {
			cleanTotal += c
		}
		detected := buggy[id] > 0
		agg.seeded++
		if detected {
			agg.detected++
		}
		agg.clean += cleanTotal
		scenarios = append(scenarios, lifeScenario{
			Name:          spec.Name(),
			Bug:           spec.Bug.String(),
			Depth:         spec.Depth,
			Branch:        spec.Branch,
			Detected:      detected,
			CleanFindings: cleanTotal,
		})
	}
	rec := &metrics.Record{Detail: map[string]any{"scenarios": scenarios}}
	for _, id := range checkers {
		agg := byChecker[id]
		rec.Metrics = append(rec.Metrics,
			metric(id+".recall", "ratio", "higher", float64(agg.detected)/float64(agg.seeded), metrics.Floor(0.9)),
			metric(id+".clean_findings", "count", "lower", float64(agg.clean), metrics.Ceiling(0)),
			metric(id+".seeded", "count", "higher", float64(agg.seeded), metrics.Floor(1)),
			metric(id+".detected", "count", "higher", float64(agg.detected)))
	}
	return rec, nil
}

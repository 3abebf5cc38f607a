package main

import (
	"fmt"

	"gator"
	"gator/internal/corpus"
	"gator/internal/metrics"
)

// precApp is one application's entry in a BENCH_7 mode.
type precApp struct {
	App           string  `json:"app"`
	StaticFacts   int     `json:"staticFacts"`
	ObservedFacts int     `json:"observedFacts"`
	Ratio         float64 `json:"ratio"`
	Violations    int     `json:"violations"`
}

// precMode is one context-sensitivity mode's corpus-wide precision.
type precMode struct {
	Mode       string    `json:"mode"`
	Ratio      float64   `json:"ratio"`
	Violations int       `json:"violations"`
	AnalysisMs float64   `json:"analysisMs"`
	Apps       []precApp `json:"apps"`
}

// precStressor is the polymorphic-helper acceptance measurement: on the
// n-activity shared-helper app the 1-CFA solution must be strictly smaller
// than the insensitive one (Strict).
type precStressor struct {
	App              string `json:"app"`
	InsensitiveFacts int    `json:"insensitiveFacts"`
	CfaFacts         int    `json:"cfaFacts"`
	Strict           bool   `json:"strict"`
}

// measurePrecision is BENCH_7, the measured precision frontier: the corpus
// under each context-sensitivity mode, every solution scored against the
// interpreter oracle, plus the polymorphic-helper stressor. A mode's ratio
// is total static solution size over total oracle-observed facts (1.0
// would be an exact analysis). It counts facts, not time, so it reproduces
// exactly and gets a bound far tighter than the timing gates; any
// soundness violation fails, and so does a stressor that stops being
// strict.
func measurePrecision(workers int) (*metrics.Record, error) {
	const seed = 1
	modes := []gator.CtxMode{gator.CtxOff, gator.Ctx1CFA}
	inputs := corpusInputs("")
	rec := &metrics.Record{}
	var detail []precMode
	for _, mode := range modes {
		batch := gator.AnalyzeBatch(inputs, gator.BatchOptions{
			Workers: workers,
			Options: gator.Options{ContextSensitivity: mode},
		})
		pm := precMode{Mode: mode.String(), AnalysisMs: ms(batch.Stats.TotalWork())}
		staticSum, observedSum := 0, 0
		for _, rep := range batch.Apps {
			if rep.Err != nil {
				return nil, fmt.Errorf("%s under %s: %w", rep.Name, mode, rep.Err)
			}
			er := rep.Result.Explore(seed)
			pm.Apps = append(pm.Apps, precApp{
				App:           rep.Name,
				StaticFacts:   er.StaticFacts,
				ObservedFacts: er.ObservedFacts,
				Ratio:         er.PrecisionRatio,
				Violations:    len(er.Violations),
			})
			pm.Violations += len(er.Violations)
			staticSum += er.StaticFacts
			observedSum += er.ObservedFacts
		}
		if observedSum > 0 {
			pm.Ratio = float64(staticSum) / float64(observedSum)
		}
		detail = append(detail, pm)
		rec.Metrics = append(rec.Metrics,
			metric(pm.Mode+".ratio", "ratio", "lower", pm.Ratio, metrics.Relative(0.05)),
			metric(pm.Mode+".violations", "count", "lower", float64(pm.Violations), metrics.Ceiling(0)))
	}

	// Stressor: the acceptance shape from DESIGN.md — 1-CFA must collapse
	// the shared helper's merged solution.
	const stressN = 8
	sources, layouts := corpus.PolymorphicHelperApp(stressN)
	facts := map[gator.CtxMode]int{}
	for _, mode := range modes {
		app, err := gator.Load(sources, layouts)
		if err != nil {
			return nil, fmt.Errorf("stressor: %w", err)
		}
		facts[mode] = len(app.Analyze(gator.Options{ContextSensitivity: mode}).ProjectedFacts())
	}
	st := precStressor{
		App:              fmt.Sprintf("polyhelper-%d", stressN),
		InsensitiveFacts: facts[gator.CtxOff],
		CfaFacts:         facts[gator.Ctx1CFA],
		Strict:           facts[gator.Ctx1CFA] < facts[gator.CtxOff],
	}
	rec.Metrics = append(rec.Metrics,
		metric(st.App+".off_minus_1cfa_facts", "count", "higher", float64(st.InsensitiveFacts-st.CfaFacts), metrics.Floor(1)))
	rec.Detail = map[string]any{"seed": seed, "modes": detail, "stressor": st}
	return rec, nil
}

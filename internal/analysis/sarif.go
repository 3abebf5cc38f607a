package analysis

// Minimal SARIF 2.1.0 writer. Only the subset consumed by code-review UIs
// is emitted: one run per report, the pass registry as the tool's rules,
// and one result per finding with a physical location when the finding has
// a source position.

import (
	"encoding/json"

	"gator/internal/checks"
)

const (
	sarifVersion = "2.1.0"
	sarifSchema  = "https://json.schemastore.org/sarif-2.1.0.json"
)

type sarifLog struct {
	Version string     `json:"version"`
	Schema  string     `json:"$schema"`
	Runs    []sarifRun `json:"runs"`
}

type sarifRun struct {
	Tool    sarifTool     `json:"tool"`
	Results []sarifResult `json:"results"`
}

type sarifTool struct {
	Driver sarifDriver `json:"driver"`
}

type sarifDriver struct {
	Name  string      `json:"name"`
	Rules []sarifRule `json:"rules"`
}

type sarifRule struct {
	ID               string       `json:"id"`
	ShortDescription sarifMessage `json:"shortDescription"`
}

type sarifMessage struct {
	Text string `json:"text"`
}

type sarifResult struct {
	RuleID    string          `json:"ruleId"`
	Level     string          `json:"level"`
	Message   sarifMessage    `json:"message"`
	Locations []sarifLocation `json:"locations,omitempty"`
	Fixes     []sarifFix      `json:"fixes,omitempty"`
}

type sarifFix struct {
	Description sarifMessage `json:"description"`
}

type sarifLocation struct {
	PhysicalLocation sarifPhysical `json:"physicalLocation"`
}

type sarifPhysical struct {
	ArtifactLocation sarifArtifact `json:"artifactLocation"`
	Region           sarifRegion   `json:"region"`
}

type sarifArtifact struct {
	URI string `json:"uri"`
}

type sarifRegion struct {
	StartLine   int `json:"startLine"`
	StartColumn int `json:"startColumn,omitempty"`
}

// SARIF renders one report as a SARIF 2.1.0 log with a single run.
func SARIF(r *Report) ([]byte, error) { return SARIFMulti([]*Report{r}) }

// SARIFMulti renders several reports (e.g. one per batch application) as a
// SARIF 2.1.0 log with one run per report.
func SARIFMulti(reports []*Report) ([]byte, error) {
	log := sarifLog{Version: sarifVersion, Schema: sarifSchema, Runs: []sarifRun{}}
	for _, r := range reports {
		log.Runs = append(log.Runs, sarifRunOf(r))
	}
	out, err := json.MarshalIndent(log, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}

func sarifRunOf(r *Report) sarifRun {
	run := sarifRun{
		Tool: sarifTool{Driver: sarifDriver{Name: "gator"}},
		// SARIF consumers reject null results; always emit an array.
		Results: []sarifResult{},
	}
	for _, p := range checks.All() {
		run.Tool.Driver.Rules = append(run.Tool.Driver.Rules, sarifRule{
			ID:               p.ID,
			ShortDescription: sarifMessage{Text: p.Doc},
		})
	}
	for _, f := range r.Findings {
		res := sarifResult{
			RuleID:  f.Check,
			Level:   sarifLevel(f.Severity),
			Message: sarifMessage{Text: f.Msg},
		}
		if f.Pos.IsValid() {
			res.Locations = []sarifLocation{{
				PhysicalLocation: sarifPhysical{
					ArtifactLocation: sarifArtifact{URI: f.Pos.File},
					Region:           sarifRegion{StartLine: int(f.Pos.Line), StartColumn: int(f.Pos.Col)},
				},
			}}
		}
		if f.SuggestedFix != "" {
			res.Fixes = []sarifFix{{Description: sarifMessage{Text: f.SuggestedFix}}}
		}
		run.Results = append(run.Results, res)
	}
	return run
}

func sarifLevel(s checks.Severity) string {
	if s == checks.Warning {
		return "warning"
	}
	return "note"
}

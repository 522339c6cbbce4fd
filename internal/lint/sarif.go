package lint

import (
	"encoding/json"
	"fmt"
	"io"
)

// SARIF 2.1.0 is the interchange format CI systems (GitHub code
// scanning among them) ingest for inline annotations. WriteSARIF emits
// the minimal valid subset: one run, the driver's rule inventory, and
// one result per finding with a physical location. Findings are
// reported at level "error" because sdcvet treats any finding as a
// build failure.

type sarifLog struct {
	Schema  string     `json:"$schema"`
	Version string     `json:"version"`
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
	Locations []sarifLocation `json:"locations"`
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
	StartColumn int `json:"startColumn"`
}

// WriteSARIF renders findings as one SARIF 2.1.0 document for tool
// (the driver name, e.g. "sdcvet"). passes supplies the rule inventory;
// the driver's own pseudo-rules (ignore-directive, stale-ignore) are
// appended automatically.
func WriteSARIF(w io.Writer, tool string, passes []Pass, findings []Finding) error {
	drv := sarifDriver{Name: tool}
	for _, p := range passes {
		drv.Rules = append(drv.Rules, sarifRule{
			ID:               p.Name(),
			ShortDescription: sarifMessage{Text: p.Doc()},
		})
	}
	drv.Rules = append(drv.Rules,
		sarifRule{ID: "ignore-directive", ShortDescription: sarifMessage{
			Text: "//lint:ignore directives need a rule list and a reason"}},
		sarifRule{ID: "stale-ignore", ShortDescription: sarifMessage{
			Text: "//lint:ignore directives must suppress a live finding"}},
	)
	results := make([]sarifResult, 0, len(findings))
	for _, f := range findings {
		results = append(results, sarifResult{
			RuleID:  f.Rule,
			Level:   "error",
			Message: sarifMessage{Text: f.Message},
			Locations: []sarifLocation{{PhysicalLocation: sarifPhysical{
				ArtifactLocation: sarifArtifact{URI: f.File},
				Region:           sarifRegion{StartLine: f.Line, StartColumn: f.Col},
			}}},
		})
	}
	doc := sarifLog{
		Schema:  "https://json.schemastore.org/sarif-2.1.0.json",
		Version: "2.1.0",
		Runs:    []sarifRun{{Tool: sarifTool{Driver: drv}, Results: results}},
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

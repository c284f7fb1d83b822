package experiments

import (
	"encoding/json"
	"io"
)

// Results is one evaluation (Selection.Run, Evaluate): the closed-loop
// measurements its artifacts read, and the result of each harness call
// they make. Text, -json and -svg all render from it.
type Results struct {
	// closed holds the closed-loop batch's rows; the figures and tables
	// that read them render views of it.
	closed closedRows

	Sweep      []SweepPoint
	Quadrant   []QuadrantResult
	Gossip     GossipResult
	LazyVCA    []LazyVCARow
	Thresholds []ThresholdRow
	Sizing     []BaselineConfigRow
	Pipeline   []PipelineRow
	Metric     []ContentionMetricRow
	EjectWidth []EjectRow
}

// JSONArtifacts are the artifacts WriteJSON renders; `figures -json`
// adds them to its selection.
var JSONArtifacts = []string{"2a", "2c", "rates", "sweep", "quadrant", "gossip"}

// resultsJSON is the -json document: Fig. 2's low- and high-load rows,
// Table III, the open-loop sweep, the Section V-B consolidation and the
// gossip run.
type resultsJSON struct {
	LowLoad  []Measurement    `json:"lowLoad"`
	HighLoad []Measurement    `json:"highLoad"`
	Table3   []Table3Row      `json:"table3"`
	Sweep    []SweepPoint     `json:"sweep"`
	Quadrant []QuadrantResult `json:"quadrant"`
	Gossip   GossipResult     `json:"gossip"`
}

// WriteJSON emits the JSONArtifacts of r as indented JSON.
func (r *Results) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(resultsJSON{
		LowLoad:  r.closed.view(lowEnergyRead),
		HighLoad: r.closed.view(highRead),
		Table3:   table3Rows(r.closed.view(ratesRead)),
		Sweep:    r.Sweep,
		Quadrant: r.Quadrant,
		Gossip:   r.Gossip,
	})
}

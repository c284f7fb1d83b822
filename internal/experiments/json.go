package experiments

import (
	"encoding/json"
	"io"
)

// Results is one evaluation (Selection.Run, Evaluate): the closed-loop
// measurements its artifacts read, and the result of each harness call
// they make. Text, -json and -svg all render from it.
type Results struct {
	// closed is the closed-loop batch; the figures, tables and
	// ablations that read it render views of it.
	closed *closedBatch

	Sweep    []SweepPoint
	Quadrant []QuadrantResult
	Gossip   GossipResult
	Metric   []ContentionMetricRow
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
		LowLoad:  lowEnergyView.rows(r.closed),
		HighLoad: highView.rows(r.closed),
		Table3:   table3Rows(ratesView.rows(r.closed)),
		Sweep:    r.Sweep,
		Quadrant: r.Quadrant,
		Gossip:   r.Gossip,
	})
}

package obs

import (
	"encoding/json"
	"io"
	"time"
)

// Manifest is the JSON run record written by -manifest: what was run
// (command, args, kinds, seeds), on what (Go version, GOMAXPROCS,
// worker count), and how it went (per-cell wall times, errors,
// aggregate worker utilization). The schema below is the documented
// contract (see README "Observability"); fields are only added, never
// renamed.
type Manifest struct {
	Command    string   `json:"command"`
	Args       []string `json:"args"`
	GoVersion  string   `json:"goVersion"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	// Workers is the resolved worker-pool size the run was configured
	// with (a batch with fewer cells than workers uses fewer).
	Workers int       `json:"workers"`
	Kinds   []string  `json:"kinds,omitempty"`
	Seeds   []int64   `json:"seeds,omitempty"`
	Start   time.Time `json:"start"`
	// WallSeconds is observer-construction to manifest-write wall time.
	WallSeconds float64 `json:"wallSeconds"`
	// CellsTotal counts cells submitted across all batches; CellsDone
	// counts cells that executed (they differ when a failure drains a
	// batch early).
	CellsTotal int `json:"cellsTotal"`
	CellsDone  int `json:"cellsDone"`
	CellErrors int `json:"cellErrors"`
	// BusySeconds is the sum of per-cell durations; WorkerUtilization
	// is BusySeconds / (WallSeconds × Workers) — how busy the pool was.
	BusySeconds       float64 `json:"busySeconds"`
	WorkerUtilization float64 `json:"workerUtilization"`
	// Cells has one entry per executed cell, in completion order. Batch
	// numbers separate the engine's sequential runner invocations (e.g.
	// cmd/figures runs one batch per harness).
	Cells []CellRecord `json:"cells"`
	// Scenario and ScenarioResults record a -scenario run: the spec the
	// run was driven by and the per-(kind, seed) per-phase metrics. Typed
	// as any so obs stays free of a scenario-package dependency; the
	// values marshal with the scenario package's JSON schema.
	Scenario        any `json:"scenario,omitempty"`
	ScenarioResults any `json:"scenarioResults,omitempty"`
	// Barrier summarizes the sharded tick's wall-time split when the run
	// used -shards and barrier timing was collected; absent otherwise.
	Barrier *BarrierRecord `json:"barrier,omitempty"`
}

// BarrierRecord is the manifest's summary of the sharded tick's barrier
// timing, summed over every observed network of the run and averaged
// per cycle. PhaseAAvgNs is the parallel pass (router bands plus the
// barrier itself), PhaseBAvgNs the serial tail (journal replay, arena
// reconcile, drain hooks); ShardBusyAvgNs[i] is how much of a cycle
// shard i actually spent ticking, averaged over the cycles of the
// networks that have a shard i, so the gap between max(ShardBusyAvgNs)
// and PhaseAAvgNs is dispatch overhead plus load imbalance.
type BarrierRecord struct {
	// Shards is the largest shard count of the observed networks (a run
	// can mix them: -shards 8 gives a 3x3 mesh 3 shards, one per row);
	// InlineDispatch records whether they ran the single-P inline
	// dispatch mode (one goroutine, no channel handoff) or spawned
	// workers.
	Shards         int       `json:"shards"`
	InlineDispatch bool      `json:"inlineDispatch"`
	Cycles         uint64    `json:"cycles"`
	PhaseAAvgNs    float64   `json:"phaseAAvgNs"`
	PhaseBAvgNs    float64   `json:"phaseBAvgNs"`
	ShardBusyAvgNs []float64 `json:"shardBusyAvgNs"`
}

// CellRecord is one executed cell's manifest entry. The memory fields
// are runtime.MemStats deltas between the cell's start and finish:
// process-global, so under a parallel pool they attribute concurrent
// cells' allocations to each other — best-effort telemetry for spotting
// allocation regressions, not an exact per-cell accounting (run with
// one worker for exact numbers).
type CellRecord struct {
	Batch   int     `json:"batch"`
	Index   int     `json:"index"`
	Seconds float64 `json:"seconds"`
	Error   string  `json:"error,omitempty"`
	// TotalAllocBytes is the delta of cumulative heap bytes allocated.
	TotalAllocBytes uint64 `json:"totalAllocBytes"`
	// NumGC is the number of garbage-collection cycles during the cell.
	NumGC uint32 `json:"numGC"`
	// PauseTotalNs is the GC stop-the-world pause time during the cell.
	PauseTotalNs uint64 `json:"pauseTotalNs"`
}

// finalize stamps the wall-clock aggregates. Idempotent: it recomputes
// from scratch each call.
func (m *Manifest) finalize(wall time.Duration) {
	m.WallSeconds = wall.Seconds()
	m.WorkerUtilization = 0
	if m.WallSeconds > 0 && m.Workers > 0 {
		m.WorkerUtilization = m.BusySeconds / (m.WallSeconds * float64(m.Workers))
	}
}

// write emits the manifest as indented JSON.
func (m *Manifest) write(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(m)
}

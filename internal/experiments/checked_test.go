package experiments

import (
	"reflect"
	"testing"

	"afcnet/internal/cmp"
	"afcnet/internal/network"
)

// checkedResults bundles the output of every harness loop so one
// DeepEqual covers the serial-vs-parallel comparison.
type checkedResults struct {
	closed []Measurement
	table3 []Table3Row
	sweep  []SweepPoint
	quad   []QuadrantResult
	gossip GossipResult
	lazy   []LazyVCARow
	thresh []ThresholdRow
	eject  []EjectRow
	sizing []BaselineConfigRow
	pipe   []PipelineRow
	metric []ContentionMetricRow
}

// checkedOpt is one seed of every harness at reduced lengths, with
// Options.Check enabled.
func checkedOpt(parallelism int) Options {
	return Options{
		Seeds:           []int64{1},
		WarmupTx:        100,
		MeasureTx:       300,
		CycleLimit:      4_000_000,
		OpenLoopWarmup:  300,
		OpenLoopMeasure: 900,
		Parallelism:     parallelism,
		Check:           true,
	}
}

// runAllChecked runs a reduced pass of every experiment harness with
// Options.Check enabled. Any invariant violation panics inside its cell
// and surfaces here as an error.
func runAllChecked(t *testing.T, parallelism int) checkedResults {
	t.Helper()
	opt := checkedOpt(parallelism)
	var r checkedResults
	var err error
	low, _ := cmp.ByName("water")
	r.closed, err = ClosedLoop([]cmp.Params{low},
		[]network.Kind{network.BackpressuredIdealBypass, network.Bless, network.BlessDrop, network.AFCAlwaysBuffered, network.AFC}, opt)
	if err != nil {
		t.Fatalf("ClosedLoop: %v", err)
	}
	r.table3, err = Table3(opt)
	if err != nil {
		t.Fatalf("Table3: %v", err)
	}
	r.sweep = LatencySweep(
		[]network.Kind{network.Backpressured, network.Bless, network.BlessDrop, network.AFC},
		[]float64{0.1, 0.3}, opt)
	r.quad = Quadrant([]network.Kind{network.Backpressured, network.Bless, network.AFC}, 0.9, 0.1, opt)
	r.gossip = GossipHotspot(1, opt)
	r.lazy, err = AblationLazyVCA(opt)
	if err != nil {
		t.Fatalf("AblationLazyVCA: %v", err)
	}
	r.thresh, err = AblationThresholds([]float64{1.0}, opt)
	if err != nil {
		t.Fatalf("AblationThresholds: %v", err)
	}
	r.eject, err = AblationEjectWidth([]int{2}, opt)
	if err != nil {
		t.Fatalf("AblationEjectWidth: %v", err)
	}
	r.sizing, err = AblationBaselineSizing(opt)
	if err != nil {
		t.Fatalf("AblationBaselineSizing: %v", err)
	}
	r.pipe, err = AblationPipeline(opt)
	if err != nil {
		t.Fatalf("AblationPipeline: %v", err)
	}
	r.metric = AblationContentionMetric(opt)
	return r
}

// TestAllHarnessesChecked runs every experiment harness with the
// invariant checker attached — serial and on eight workers — and
// requires zero violations plus bit-for-bit identical results across
// the two parallelism levels.
func TestAllHarnessesChecked(t *testing.T) {
	if testing.Short() {
		t.Skip("checked full-harness smoke is a long test")
	}
	serial := runAllChecked(t, 1)
	parallel := runAllChecked(t, 8)
	if !reflect.DeepEqual(serial, parallel) {
		t.Errorf("checked serial and parallel harness results diverged")
	}
}

package experiments

import (
	"testing"

	"afcnet/internal/config"
	"afcnet/internal/runner"
	"afcnet/internal/topology"
)

// TestShardedEqualsSerial is the gate on the sharded tick: every
// open-loop cell of TestGoldenDigests (every kind x seeds {1,2,3,5} x
// rates {0.05,0.30,0.55}, checker attached) runs on an 8x8 mesh serially
// and at 2, 3 and 8 shards, and all four paths must hash to the one
// digest recorded per cell under the 8x8/ keys of testdata/golden.json,
// so the sharded tick is checked against a recorded result rather than
// only against the serial kernel. The mesh is 8x8 rather than the
// paper's 3x3 so shard count 8 is genuinely eight bands, not a clamp: 3
// shards leave uneven bands (8 rows over 3), 8 is one row per band, so
// every boundary pipe is staged, and the post-measurement drain also
// exercises whole-kernel coasting composed with the barrier. make
// race-equality runs this under the race detector, where any
// unsynchronized cross-shard access in the two-phase barrier is a hard
// failure.
func TestShardedEqualsSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every kind x seed x rate at four shard counts")
	}
	rec := loadGolden(t)
	got := goldenDigests{}
	cells := goldenCells()
	for _, shards := range []int{0, 2, 3, 8} {
		opt := goldenBase()
		opt.Parallelism = 4
		opt.Shards = shards
		opt.System = config.DefaultWithMesh(topology.NewMesh(8, 8))
		outs, err := runner.Map(len(cells), opt.pool(), func(i int) (activeSetSnap, error) {
			c := cells[i]
			return activeSetCell(c.kind, c.seed, c.rate, opt), nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for i, c := range cells {
			got.add(t, mesh8Prefix+c.name(), shardPath(shards), outs[i])
		}
	}
	checkGolden(t, rec, got)
}

// TestShardCountInvarianceFig2a is the metamorphic gate on the paper's
// headline figure: the Fig2a closed-loop measurement (low-load workload,
// all Figure 2 kinds, CMP substrate in the loop) must hash to the digest
// recorded per (bench, kind) row under the fig2a/quick/ keys of
// testdata/golden.json serially and at 2 and 3 shards. This walks the
// sharded barrier through the full stack — delivery handlers firing
// inside the parallel phase, bank jobs and counters staged per shard,
// the drop variant's ACK/NACK journals.
func TestShardCountInvarianceFig2a(t *testing.T) {
	if testing.Short() {
		t.Skip("three closed-loop Fig2a runs")
	}
	rec := loadGolden(t)
	got := goldenDigests{}
	for _, shards := range []int{0, 2, 3} {
		opt := Quick()
		opt.Parallelism = 4
		opt.Check = true
		opt.Shards = shards
		got.addFig2a(t, fig2aQuickPrefix, shardPath(shards), Fig2Kinds, opt)
	}
	checkGolden(t, rec, got)
}

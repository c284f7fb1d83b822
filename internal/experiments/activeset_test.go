package experiments

import (
	"reflect"
	"testing"

	"afcnet/internal/energy"
	"afcnet/internal/network"
	"afcnet/internal/runner"
	"afcnet/internal/topology"
	"afcnet/internal/traffic"
)

// activeSetSnap captures everything a cell measures, so DeepEqual between
// a dense-kernel run and an active-set run proves bit-for-bit equality:
// cycle counts (RunUntil semantics), counters, float statistics (EWMA and
// energy accumulation order), and the sampled queue depths that the
// fast-forwarded housekeeping path maintains.
type activeSetSnap struct {
	Now        uint64
	Drained    bool
	Counters   network.Counters
	Created    uint64
	Delivered  uint64
	Offered    uint64
	Latency    float64
	NetLatency float64
	Throughput float64
	Energy     energy.Breakdown
	QueueLens  []float64
}

// activeSetCell runs one open-loop (kind, seed, rate) cell on a fresh
// network built from opt (so opt.System and opt.Shards pick the mesh and
// the tick) and snapshots it with runSnap.
func activeSetCell(kind network.Kind, seed int64, rate float64, opt Options) activeSetSnap {
	net := opt.newNetwork(network.Config{Kind: kind, Seed: seed, MeterEnergy: true})
	defer net.Close()
	gen := traffic.NewGenerator(net, traffic.Config{Rate: rate}, net.RandStream)
	net.AddTicker(gen)
	return runSnap(net, gen, opt)
}

// runSnap runs a cell's warmup and measurement window followed by a
// drain phase — the drain exercises whole-kernel fast-forward (RunUntil
// coasting between wake edges) — and captures everything it measured.
func runSnap(net *network.Network, gen *traffic.Generator, opt Options) activeSetSnap {
	net.Run(opt.OpenLoopWarmup)
	net.ResetStats()
	net.Run(opt.OpenLoopMeasure)
	gen.Stop()
	drained := net.RunUntil(net.Drained, 200_000)
	s := activeSetSnap{
		Now:        net.Now(),
		Drained:    drained,
		Counters:   net.Counters(),
		Created:    net.CreatedPackets(),
		Delivered:  net.DeliveredPackets(),
		Offered:    gen.OfferedFlits(),
		Latency:    net.MeanTotalLatency(),
		NetLatency: net.MeanNetLatency(),
		Throughput: net.ThroughputFlits(),
		Energy:     net.TotalEnergy(),
	}
	for n := 0; n < net.Nodes(); n++ {
		s.QueueLens = append(s.QueueLens, net.NI(topology.NodeID(n)).MeanQueueLen())
	}
	return s
}

// TestActiveSetEqualsDense is the gate on the active-set kernel: every
// network kind, four seeds, and three load levels (low, mid, past
// saturation for the weaker kinds) must produce DeepEqual measurements
// and counter snapshots under the dense reference kernel and the
// active-set kernel — serial and 8-way parallel — with the invariant
// checker attached. Low rates are where skipping fires constantly;
// saturation is where it must never corrupt anything while buying
// nothing; the drain phase is where whole-kernel coasting jumps the
// clock.
func TestActiveSetEqualsDense(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every kind x seed x rate three times")
	}
	seeds := []int64{1, 2, 3, 5}
	rates := []float64{0.05, 0.30, 0.55}
	type cellKey struct {
		kind network.Kind
		seed int64
		rate float64
	}
	var cells []cellKey
	for k := network.Kind(0); k < network.NumKinds; k++ {
		for _, seed := range seeds {
			for _, rate := range rates {
				cells = append(cells, cellKey{k, seed, rate})
			}
		}
	}
	run := func(dense bool, parallelism int) []activeSetSnap {
		opt := Options{
			OpenLoopWarmup:  500,
			OpenLoopMeasure: 1500,
			Parallelism:     parallelism,
			Check:           true,
			Dense:           dense,
		}
		outs, err := runner.Map(len(cells), opt.pool(), func(i int) (activeSetSnap, error) {
			c := cells[i]
			return activeSetCell(c.kind, c.seed, c.rate, opt), nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return outs
	}
	dense := run(true, 8)
	active := run(false, 1)
	active8 := run(false, 8)
	for i, c := range cells {
		if !reflect.DeepEqual(dense[i], active[i]) {
			t.Errorf("%v seed %d rate %.2f: active-set (serial) diverged from dense:\ndense:  %+v\nactive: %+v",
				c.kind, c.seed, c.rate, dense[i], active[i])
		}
		if !reflect.DeepEqual(dense[i], active8[i]) {
			t.Errorf("%v seed %d rate %.2f: active-set (8-way) diverged from dense:\ndense:  %+v\nactive: %+v",
				c.kind, c.seed, c.rate, dense[i], active8[i])
		}
	}
}

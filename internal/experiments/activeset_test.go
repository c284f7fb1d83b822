package experiments

import (
	"afcnet/internal/energy"
	"afcnet/internal/network"
	"afcnet/internal/topology"
	"afcnet/internal/traffic"
)

// activeSetSnap captures everything a cell measures, so equal digests of
// two runs prove bit-for-bit equality: cycle counts (RunUntil semantics),
// counters, float statistics (EWMA and energy accumulation order), and
// the sampled queue depths that the fast-forwarded housekeeping path
// maintains.
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
	net := opt.newWorkerState().acquire(network.Config{Kind: kind, Seed: seed, MeterEnergy: true}).net
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

package experiments

import (
	"afcnet/internal/energy"
	"afcnet/internal/network"
	"afcnet/internal/traffic"
)

// activeSetSnap captures everything a cell measures, so equal digests of
// two runs prove bit-for-bit equality: cycle counts (RunUntil semantics),
// counters, and float statistics (EWMA and energy accumulation order).
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
// drain phase and captures everything it measured. Without the checker,
// which ticks every cycle, the drain exercises whole-kernel fast-forward
// (RunUntil coasting between wake edges).
func runSnap(net *network.Network, gen *traffic.Generator, opt Options) activeSetSnap {
	net.Run(opt.OpenLoopWarmup)
	net.ResetStats()
	net.Run(opt.OpenLoopMeasure)
	gen.Stop()
	drained := net.RunUntil(net.Drained, 200_000)
	return activeSetSnap{
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
}

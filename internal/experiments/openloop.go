package experiments

import (
	"fmt"
	"io"

	"afcnet/internal/config"
	"afcnet/internal/network"
	"afcnet/internal/stats"
	"afcnet/internal/topology"
	"afcnet/internal/traffic"
)

// SweepPoint is one (kind, offered-rate) cell of the open-loop
// latency-throughput sweep ("Other results" in Section V-A: all kinds
// match at low load; AFC and backpressured reach near-identical
// saturation throughput; backpressureless saturates earlier; the drop
// variant earlier still).
type SweepPoint struct {
	Kind       network.Kind
	Offered    float64 // flits/node/cycle
	Throughput float64 // delivered flits/node/cycle
	Latency    float64 // mean total latency (queueing included), cycles
	Saturated  bool
}

// saturationLatency marks a sweep point saturated: total latency beyond
// this bound means source queues are growing without bound. A point is
// also saturated when deliveries fall visibly behind creations within the
// window (backlog growth), which detects saturation robustly even in
// short windows.
const saturationLatency = 400

// LatencySweep runs open-loop uniform-random traffic at each offered rate
// for each kind.
func LatencySweep(kinds []network.Kind, rates []float64, opt Options) []SweepPoint {
	return LatencySweepPattern(kinds, rates, func(m topology.Mesh) traffic.Pattern {
		return traffic.Uniform{Mesh: m}
	}, opt)
}

// LatencySweepPattern is LatencySweep with a custom destination pattern
// (cmd/sweep exposes transpose, bit-complement, hotspot and neighbor
// patterns).
func LatencySweepPattern(kinds []network.Kind, rates []float64,
	mkPattern func(topology.Mesh) traffic.Pattern, opt Options) []SweepPoint {
	type sweepOut struct {
		lat, thr float64
		sat      bool
	}
	ns := len(opt.Seeds)
	nr := len(rates)
	outs, err := mapCells(len(kinds)*nr*ns, opt, func(w *workerState, i int) (sweepOut, error) {
		k := kinds[i/(nr*ns)]
		rate := rates[i/ns%nr]
		seed := opt.Seeds[i%ns]
		e := w.acquire(network.Config{Kind: k, Seed: seed, MeterEnergy: false})
		net := e.net
		net.AddTicker(e.generator(traffic.Config{Pattern: mkPattern(net.Mesh()), Rate: rate}))
		net.Run(opt.OpenLoopWarmup)
		net.ResetStats()
		net.Run(opt.OpenLoopMeasure)
		o := sweepOut{lat: net.MeanTotalLatency(), thr: net.ThroughputFlits()}
		if o.lat > saturationLatency {
			o.sat = true
		}
		if c := net.CreatedPackets(); c > 100 &&
			float64(net.DeliveredPackets()) < 0.85*float64(c) {
			o.sat = true
		}
		return o, nil
	})
	if err != nil {
		// Cells cannot fail; only a recovered panic reaches here, which the
		// serial loop would have propagated as a panic too.
		panic(err)
	}
	var out []SweepPoint
	for ki, k := range kinds {
		for ri, rate := range rates {
			var lat, thr stats.Running
			sat := false
			for si := 0; si < ns; si++ {
				o := outs[(ki*nr+ri)*ns+si]
				lat.Add(o.lat)
				thr.Add(o.thr)
				sat = sat || o.sat
			}
			out = append(out, SweepPoint{
				Kind:       k,
				Offered:    rate,
				Throughput: thr.Mean(),
				Latency:    lat.Mean(),
				Saturated:  sat,
			})
		}
	}
	return out
}

// SaturationThroughput returns, per kind, the highest offered rate in pts
// that is not saturated (the paper's saturation-throughput comparison).
func SaturationThroughput(pts []SweepPoint) map[network.Kind]float64 {
	out := map[network.Kind]float64{}
	for _, p := range pts {
		if !p.Saturated && p.Offered > out[p.Kind] {
			out[p.Kind] = p.Offered
		}
	}
	return out
}

// WriteSweep renders the latency-throughput sweep.
func WriteSweep(w io.Writer, pts []SweepPoint) {
	footer := []string{"saturation throughput (highest unsaturated offered load):"}
	sat := SaturationThroughput(pts)
	for _, k := range []network.Kind{network.Backpressured, network.Bless, network.BlessDrop, network.AFC} {
		if v, ok := sat[k]; ok {
			footer = append(footer, fmt.Sprintf("  %-28s %.3f flits/node/cycle", k, v))
		}
	}
	writeTable(w, "Open-loop uniform-random latency/throughput sweep (3x3 mesh)",
		"kind\toffered\tthroughput\tlatency\tsaturated", pts, func(p SweepPoint) string {
			return fmt.Sprintf("%s\t%.3f\t%.3f\t%.1f\t%v", p.Kind, p.Offered, p.Throughput, p.Latency, p.Saturated)
		}, footer...)
}

// QuadrantResult is the Section V-B spatial-variation experiment for one
// kind: an 8x8 mesh where one quadrant injects at a high rate and the
// other three at a low rate, with quadrant-local destinations.
type QuadrantResult struct {
	Kind            network.Kind
	Energy          float64 // total network energy over the window
	HotLatency      float64 // mean net latency of packets delivered in the hot quadrant
	ColdLatency     float64 // same for the three cold quadrants
	BufferedFrac    float64 // AFC only: buffered duty cycle
	GossipSwitches  uint64
	EscapeEvents    uint64
	DeliveredHot    uint64
	DeliveredCold   uint64
	ThroughputFlits float64
}

// Quadrant runs the consolidation experiment: hotRate in quadrant 0,
// coldRate elsewhere (the paper uses 0.9 and 0.1 flits/node/cycle).
func Quadrant(kinds []network.Kind, hotRate, coldRate float64, opt Options) []QuadrantResult {
	mesh := topology.NewMesh(8, 8)
	sys := config.DefaultWithMesh(mesh)
	type quadOut struct {
		energy, thr, hotLat, coldLat, bufFrac float64
		hotOK, coldOK                         bool
		gossip, escape, delHot, delCold       uint64
	}
	ns := len(opt.Seeds)
	outs, err := mapCells(len(kinds)*ns, opt, func(w *workerState, i int) (quadOut, error) {
		k := kinds[i/ns]
		seed := opt.Seeds[i%ns]
		e := w.acquire(network.Config{System: sys, Kind: k, Seed: seed, MeterEnergy: true})
		net := e.net
		if len(w.rates) != net.Nodes() {
			w.rates = make([]float64, net.Nodes())
		}
		rates := w.rates
		for n := range rates {
			if traffic.QuadrantIndex(mesh, topology.NodeID(n)) == 0 {
				rates[n] = hotRate
			} else {
				rates[n] = coldRate
			}
		}
		net.AddTicker(e.generator(traffic.Config{Pattern: traffic.Quadrant{Mesh: mesh}, NodeRates: rates}))
		net.Run(opt.OpenLoopWarmup)
		net.ResetStats()
		net.Run(opt.OpenLoopMeasure)

		var o quadOut
		o.energy = net.TotalEnergy().Total()
		o.thr = net.ThroughputFlits()
		var hSum, cSum float64
		var hN, cN uint64
		for n := 0; n < net.Nodes(); n++ {
			h := net.NI(topology.NodeID(n)).NetLatency()
			if traffic.QuadrantIndex(mesh, topology.NodeID(n)) == 0 {
				hSum += h.Mean() * float64(h.Count())
				hN += h.Count()
			} else {
				cSum += h.Mean() * float64(h.Count())
				cN += h.Count()
			}
		}
		if hN > 0 {
			o.hotLat, o.hotOK = hSum/float64(hN), true
		}
		if cN > 0 {
			o.coldLat, o.coldOK = cSum/float64(cN), true
		}
		ms := net.ModeStats()
		o.bufFrac = ms.BufferedFraction()
		o.gossip, o.escape = ms.GossipSwitches, ms.EscapeEvents
		o.delHot, o.delCold = hN, cN
		return o, nil
	})
	if err != nil {
		panic(err) // cells cannot fail; a recovered panic propagates as before
	}
	var out []QuadrantResult
	for ki, k := range kinds {
		var energy, hotLat, coldLat, thr, bufFrac stats.Running
		var gossip, escape, delHot, delCold uint64
		for si := 0; si < ns; si++ {
			o := outs[ki*ns+si]
			energy.Add(o.energy)
			thr.Add(o.thr)
			if o.hotOK {
				hotLat.Add(o.hotLat)
			}
			if o.coldOK {
				coldLat.Add(o.coldLat)
			}
			bufFrac.Add(o.bufFrac)
			gossip += o.gossip
			escape += o.escape
			delHot += o.delHot
			delCold += o.delCold
		}
		out = append(out, QuadrantResult{
			Kind:            k,
			Energy:          energy.Mean(),
			HotLatency:      hotLat.Mean(),
			ColdLatency:     coldLat.Mean(),
			BufferedFrac:    bufFrac.Mean(),
			GossipSwitches:  gossip,
			EscapeEvents:    escape,
			DeliveredHot:    delHot,
			DeliveredCold:   delCold,
			ThroughputFlits: thr.Mean(),
		})
	}
	return out
}

// WriteQuadrant renders the consolidation experiment, normalizing energy
// to AFC (the paper reports backpressured and backpressureless as +9% and
// +30% energy over AFC).
func WriteQuadrant(w io.Writer, rs []QuadrantResult) {
	var afcEnergy float64
	for _, r := range rs {
		if r.Kind == network.AFC {
			afcEnergy = r.Energy
		}
	}
	writeTable(w, "Section V-B: 8x8 consolidation, hot quadrant @0.9 + three cold @0.1 flits/node/cycle",
		"kind\tenergy/AFC\thot lat\tcold lat\tbuffered%\tgossip\tescape", rs, func(r QuadrantResult) string {
			norm := 0.0
			if afcEnergy > 0 {
				norm = r.Energy / afcEnergy
			}
			return fmt.Sprintf("%s\t%.3f\t%.1f\t%.1f\t%.1f%%\t%d\t%d",
				r.Kind, norm, r.HotLatency, r.ColdLatency, 100*r.BufferedFrac, r.GossipSwitches, r.EscapeEvents)
		})
}

// GossipResult reports the open-loop hotspot experiment that exercises
// the gossip-induced mode switch (Section V-A: the paper saw them only in
// an open-loop hotspot experiment; they are a correctness safeguard).
type GossipResult struct {
	GossipSwitches  uint64
	ForwardSwitches uint64
	EscapeEvents    uint64
	Delivered       uint64
	Created         uint64
	Drained         bool
}

// GossipHotspot drives an AFC network with hotspot traffic tuned so that
// the hotspot's neighborhood switches to backpressured mode while outer
// routers stay backpressureless, then lets it drain and checks no flit
// was lost.
func GossipHotspot(seed int64, opt Options) GossipResult {
	net := opt.newWorkerState().acquire(network.Config{Kind: network.AFC, Seed: seed, MeterEnergy: false}).net
	mesh := net.Mesh()
	gen := traffic.NewGenerator(net, traffic.Config{
		Pattern: traffic.Hotspot{Mesh: mesh, Hot: mesh.Node(1, 1), Frac: 0.7},
		Rate:    0.45,
	}, net.RandStream)
	net.AddTicker(gen)
	net.Run(opt.OpenLoopMeasure)
	gen.Stop()
	drained := net.RunUntil(net.Drained, 200_000)
	ms := net.ModeStats()
	return GossipResult{
		GossipSwitches:  ms.GossipSwitches,
		ForwardSwitches: ms.ForwardSwitches,
		EscapeEvents:    ms.EscapeEvents,
		Delivered:       net.DeliveredPackets(),
		Created:         net.CreatedPackets(),
		Drained:         drained,
	}
}

// WriteGossip renders the gossip experiment.
func WriteGossip(w io.Writer, r GossipResult) {
	fmt.Fprintln(w, "Gossip-induced mode switching under an open-loop hotspot (AFC network)")
	fmt.Fprintf(w, "  forward switches: %d (gossip-induced: %d), escape events: %d\n",
		r.ForwardSwitches, r.GossipSwitches, r.EscapeEvents)
	fmt.Fprintf(w, "  packets delivered: %d of %d created (drained: %v)\n\n", r.Delivered, r.Created, r.Drained)
}

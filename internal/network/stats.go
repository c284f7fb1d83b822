package network

import (
	"afcnet/internal/core"
	"afcnet/internal/deflect"
	"afcnet/internal/energy"
)

// TotalEnergy sums the energy of all routers and their links since the
// last ResetStats.
func (n *Network) TotalEnergy() energy.Breakdown {
	var b energy.Breakdown
	for _, m := range n.meters {
		if m != nil {
			b.Add(m.Breakdown())
		}
	}
	return b
}

// InjectedFlits sums flits injected across all nodes since ResetStats.
func (n *Network) InjectedFlits() uint64 {
	var t uint64
	for _, nif := range n.nis {
		t += nif.InjectedFlits()
	}
	return t
}

// DeliveredPackets sums reassembled packets across all nodes.
func (n *Network) DeliveredPackets() uint64 {
	var t uint64
	for _, nif := range n.nis {
		t += nif.DeliveredPackets()
	}
	return t
}

// CreatedPackets sums packets handed to NIs.
func (n *Network) CreatedPackets() uint64 {
	var t uint64
	for _, nif := range n.nis {
		t += nif.CreatedPackets()
	}
	return t
}

// MeanNetLatency is the delivery-weighted mean network latency
// (first-flit injection to reassembly) in cycles.
func (n *Network) MeanNetLatency() float64 {
	var sum float64
	var cnt uint64
	for _, nif := range n.nis {
		h := nif.NetLatency()
		sum += h.Mean() * float64(h.Count())
		cnt += h.Count()
	}
	if cnt == 0 {
		return 0
	}
	return sum / float64(cnt)
}

// MeanTotalLatency is the mean creation-to-delivery latency in cycles,
// source queueing included (the saturation signal).
func (n *Network) MeanTotalLatency() float64 {
	var sum float64
	var cnt uint64
	for _, nif := range n.nis {
		h := nif.TotalLatency()
		sum += h.Mean() * float64(h.Count())
		cnt += h.Count()
	}
	if cnt == 0 {
		return 0
	}
	return sum / float64(cnt)
}

// CyclesSinceReset returns the measurement-window length.
func (n *Network) CyclesSinceReset() uint64 { return n.kernel.Now() - n.resetCycle }

// InjectionRate returns achieved flits/node/cycle since ResetStats — the
// metric Table III reports per workload.
func (n *Network) InjectionRate() float64 {
	c := n.CyclesSinceReset()
	if c == 0 {
		return 0
	}
	return float64(n.InjectedFlits()) / float64(n.Nodes()) / float64(c)
}

// ThroughputFlits returns delivered flits/node/cycle since ResetStats.
func (n *Network) ThroughputFlits() float64 {
	c := n.CyclesSinceReset()
	if c == 0 {
		return 0
	}
	var t uint64
	for _, nif := range n.nis {
		t += nif.DeliveredFlits()
	}
	return float64(t) / float64(n.Nodes()) / float64(c)
}

// ResetStats zeroes energy meters and NI statistics, starting a fresh
// measurement window (warmup discard). Router mode/duty counters are
// cumulative and not reset.
func (n *Network) ResetStats() {
	for _, m := range n.meters {
		if m != nil {
			m.Reset()
		}
	}
	for _, nif := range n.nis {
		nif.ResetStats()
	}
	n.resetCycle = n.kernel.Now()
}

// Drained reports whether no flit remains anywhere: injection queues,
// links, router buffers/latches, reassembly, or pending NACK
// retransmissions.
func (n *Network) Drained() bool {
	for _, nif := range n.nis {
		if nif.QueuedFlits() > 0 || nif.PendingReassembly() > 0 {
			return false
		}
	}
	for _, l := range n.links {
		// A staged send parked on a boundary data pipe is a flit in
		// flight that the ring counter cannot see yet (it commits at the
		// head of the owner's next pass) — serial would have counted it.
		// Parked credit/ctrl sends are deliberately NOT consulted here:
		// serial ignores in-ring credits too, and Drained must stay
		// bit-identical across shard counts.
		if l.InFlight() > 0 || l.PendingStaged() {
			return false
		}
	}
	for _, e := range n.nacks {
		// Pending NACKs matter only if their packet is still undelivered;
		// stale entries fire as no-ops.
		if n.nis[e.V.src].Epoch(e.V.pkt) >= 0 {
			return false
		}
	}
	for _, r := range n.routers {
		if h, ok := r.(interface{ BufferedFlits() int }); ok && h.BufferedFlits() > 0 {
			return false
		}
		if h, ok := r.(interface{ LatchedFlits() int }); ok && h.LatchedFlits() > 0 {
			return false
		}
	}
	return true
}

// MaxFlitDeflections returns the largest misroute count observed on any
// delivered flit since ResetStats — the livelock-freedom observable.
func (n *Network) MaxFlitDeflections() uint64 {
	var m uint64
	for _, nif := range n.nis {
		if v := nif.Deflections().Max(); v > m {
			m = v
		}
	}
	return m
}

// TotalDeflections sums misroutes across routers (cumulative).
func (n *Network) TotalDeflections() uint64 {
	var t uint64
	for _, r := range n.routers {
		if d, ok := r.(interface{ Deflections() uint64 }); ok {
			t += d.Deflections()
		}
	}
	return t
}

// TotalDropped sums dropped flits (drop variant, cumulative).
func (n *Network) TotalDropped() uint64 {
	var t uint64
	for _, r := range n.routers {
		if d, ok := r.(*deflect.DropRouter); ok {
			t += d.DroppedFlits()
		}
	}
	return t
}

// ModeStats aggregates AFC mode behavior across all routers.
type ModeStats struct {
	BlessCycles     uint64
	SwitchingCycles uint64
	BufferedCycles  uint64
	ForwardSwitches uint64
	ReverseSwitches uint64
	GossipSwitches  uint64
	EscapeEvents    uint64
}

// BufferedFraction is the fraction of router-cycles spent in
// backpressured mode (the paper's duty-cycle metric; the brief switching
// windows count with backpressureless operation, matching the datapath).
func (m ModeStats) BufferedFraction() float64 {
	total := m.BlessCycles + m.SwitchingCycles + m.BufferedCycles
	if total == 0 {
		return 0
	}
	return float64(m.BufferedCycles) / float64(total)
}

// Counters is a snapshot of the network's headline counters, taken by
// the observability sampler (internal/obs) to feed the expvar debug
// endpoint. NI-backed counters (injected/delivered) reset with
// ResetStats at measurement-window boundaries; deflections and mode
// cycles are cumulative.
type Counters struct {
	InjectedFlits    uint64
	DeliveredFlits   uint64
	DeliveredPackets uint64
	Deflections      uint64
	Mode             ModeStats
}

// Counters returns the current counter snapshot. Pure observation: it
// only reads, so sampling cannot perturb results.
func (n *Network) Counters() Counters {
	c := Counters{
		InjectedFlits:    n.InjectedFlits(),
		DeliveredPackets: n.DeliveredPackets(),
		Deflections:      n.TotalDeflections(),
		Mode:             n.ModeStats(),
	}
	for _, nif := range n.nis {
		c.DeliveredFlits += nif.DeliveredFlits()
	}
	return c
}

// ModeStats returns aggregate AFC mode statistics (zero for non-AFC
// networks).
func (n *Network) ModeStats() ModeStats {
	var m ModeStats
	for _, r := range n.routers {
		a, ok := r.(*core.Router)
		if !ok {
			continue
		}
		mc := a.ModeCycles()
		m.BlessCycles += mc[core.ModeBless]
		m.SwitchingCycles += mc[core.ModeSwitching]
		m.BufferedCycles += mc[core.ModeBuffered]
		m.ForwardSwitches += a.ForwardSwitches()
		m.ReverseSwitches += a.ReverseSwitches()
		m.GossipSwitches += a.GossipSwitches()
		m.EscapeEvents += a.EscapeEvents()
	}
	return m
}

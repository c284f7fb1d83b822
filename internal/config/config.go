// Package config holds the simulated-machine configuration from Table II
// of the paper and the AFC parameter set from Section IV, as reusable
// presets.
package config

import (
	"fmt"

	"afcnet/internal/flit"
	"afcnet/internal/topology"
)

// Thresholds is a hysteresis pair of local contention thresholds in
// flits/cycle of smoothed traffic intensity: the forward mode-switch
// (backpressureless -> backpressured) triggers above High, the reverse
// switch below Low, and the mode is held in between.
type Thresholds struct {
	High float64
	Low  float64
}

// AFC collects the AFC router parameters (Section IV, "AFC Parameters").
type AFC struct {
	// VCsPerVN is the number of single-flit VCs per virtual network
	// (8 VCs for each control network, 16 for the data network — half the
	// baseline's total buffering, enabled by lazy VC allocation). Their
	// sum, the slots per port, may be at most MaxAFCSlotsPerPort.
	VCsPerVN [flit.NumVNs]int
	// ThresholdsByPosition maps router position to its contention
	// thresholds; routers at edges and corners have fewer ports and
	// scaled-down thresholds.
	ThresholdsByPosition map[topology.Position]Thresholds
	// EWMAWeight is the traffic-intensity smoothing weight (0.99).
	EWMAWeight float64
	// GossipFreeSlots is X, the downstream free-buffer watermark below
	// which a backpressureless AFC router is gossip-switched to
	// backpressured mode. Must be at least 2L; the paper uses 2L.
	GossipFreeSlots int
	// Policy-independent deflection arbitration seed lives in the network
	// config; the mode machinery itself is deterministic.
}

// MaxAFCSlotsPerPort bounds an AFC router's single-flit VC slots per
// port: its switch allocator keeps each port's slots as one 64-bit mask.
const MaxAFCSlotsPerPort = 64

// BufferSlotsPerPort returns the total single-flit VC slots per physical
// port (32 in the paper's configuration).
func (a AFC) BufferSlotsPerPort() int {
	n := 0
	for _, v := range a.VCsPerVN {
		n += v
	}
	return n
}

// Baseline collects the backpressured baseline router parameters: 2 VCs
// per control network and 4 on the data network, each with 8-flit-deep
// buffers (64 flits per port).
type Baseline struct {
	VCsPerVN [flit.NumVNs]int
	BufDepth int
	// RealisticVCA models the paper's Section II caveat: the 2-stage
	// baseline charitably assumes 0-cycle VC allocation ("realistically,
	// VCA delay can be hidden only by successful speculation, which is
	// more likely at low loads"). When set, a head flit spends one extra
	// cycle in VC allocation before it may request the switch — the
	// 3-stage router that real backpressured designs degrade to. Default
	// false: the paper's charitable baseline.
	RealisticVCA bool
}

// VCsPerPort returns the total number of VCs per physical port.
func (b Baseline) VCsPerPort() int {
	n := 0
	for _, v := range b.VCsPerVN {
		n += v
	}
	return n
}

// BufferSlotsPerPort returns total buffer slots per physical port.
func (b Baseline) BufferSlotsPerPort() int { return b.VCsPerPort() * b.BufDepth }

// System is the simulated machine configuration (network portion of
// Table II plus the router parameter sets).
type System struct {
	Mesh        topology.Mesh
	LinkLatency int // L; the paper uses 2-cycle links
	// EjectWidth is the local (ejection) port bandwidth in flits/cycle,
	// identical for every router kind. The default is 1, like the mesh
	// ports; the ejection-width ablation sweeps it.
	EjectWidth int

	Baseline Baseline
	AFC      AFC
}

// Default returns the paper's configuration: 3x3 mesh, 2-cycle links,
// baseline 2+2+4 VCs x 8-flit buffers, AFC 8+8+16 single-flit VCs,
// thresholds 1.8/1.2 (corner), 2.1/1.3 (edge), 2.2/1.7 (center),
// EWMA weight 0.99, gossip watermark X = 2L.
func Default() System {
	return withMesh(topology.NewMesh(3, 3))
}

// DefaultWithMesh returns the default configuration on a custom mesh
// (the Section V-B consolidation experiment uses 8x8).
func DefaultWithMesh(m topology.Mesh) System {
	return withMesh(m)
}

func withMesh(m topology.Mesh) System {
	const linkLatency = 2
	return System{
		Mesh:        m,
		LinkLatency: linkLatency,
		EjectWidth:  1,
		Baseline: Baseline{
			VCsPerVN: [flit.NumVNs]int{2, 2, 4},
			BufDepth: 8,
		},
		AFC: AFC{
			VCsPerVN: [flit.NumVNs]int{8, 8, 16},
			ThresholdsByPosition: map[topology.Position]Thresholds{
				topology.Corner: {High: 1.8, Low: 1.2},
				topology.Edge:   {High: 2.1, Low: 1.3},
				topology.Center: {High: 2.2, Low: 1.7},
			},
			EWMAWeight:      0.99,
			GossipFreeSlots: 2 * linkLatency,
		},
	}
}

// Validate checks internal consistency and returns a descriptive error on
// the first violation.
func (s System) Validate() error {
	if s.LinkLatency < 1 {
		return fmt.Errorf("config: link latency must be >= 1, got %d", s.LinkLatency)
	}
	if s.EjectWidth < 1 {
		return fmt.Errorf("config: eject width must be >= 1, got %d", s.EjectWidth)
	}
	if s.Mesh.Width < 2 || s.Mesh.Height < 2 {
		return fmt.Errorf("config: mesh must be at least 2x2, got %dx%d", s.Mesh.Width, s.Mesh.Height)
	}
	if s.Mesh.Width > topology.MaxDim || s.Mesh.Height > topology.MaxDim {
		return fmt.Errorf("config: mesh sides must be at most %d, got %dx%d", topology.MaxDim, s.Mesh.Width, s.Mesh.Height)
	}
	for vn, n := range s.Baseline.VCsPerVN {
		if n < 1 {
			return fmt.Errorf("config: baseline needs >= 1 VC on vn %d", vn)
		}
	}
	if s.Baseline.BufDepth < 1 {
		return fmt.Errorf("config: baseline buffer depth must be >= 1, got %d", s.Baseline.BufDepth)
	}
	for vn, n := range s.AFC.VCsPerVN {
		if n < 2*s.LinkLatency {
			// The gossip watermark X=2L must be reachable without the VN
			// already being full, and the switch window must be covered.
			return fmt.Errorf("config: AFC needs >= 2L VCs on vn %d, got %d", vn, n)
		}
	}
	if n := s.AFC.BufferSlotsPerPort(); n > MaxAFCSlotsPerPort {
		return fmt.Errorf("config: AFC needs at most %d VCs per port, got %d", MaxAFCSlotsPerPort, n)
	}
	if s.AFC.GossipFreeSlots < 2*s.LinkLatency {
		return fmt.Errorf("config: gossip watermark X must be >= 2L=%d, got %d",
			2*s.LinkLatency, s.AFC.GossipFreeSlots)
	}
	if w := s.AFC.EWMAWeight; w <= 0 || w >= 1 {
		return fmt.Errorf("config: EWMA weight must be in (0,1), got %g", w)
	}
	for _, pos := range []topology.Position{topology.Corner, topology.Edge, topology.Center} {
		th, ok := s.AFC.ThresholdsByPosition[pos]
		if !ok {
			return fmt.Errorf("config: missing AFC thresholds for %s routers", pos)
		}
		if th.Low <= 0 || th.High <= th.Low {
			return fmt.Errorf("config: %s thresholds must satisfy 0 < low < high, got %+v", pos, th)
		}
	}
	return nil
}

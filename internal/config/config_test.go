package config

import (
	"testing"

	"afcnet/internal/flit"
	"afcnet/internal/topology"
)

func TestDefaultMatchesPaper(t *testing.T) {
	s := Default()
	if err := s.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	// Table II: 3x3 mesh, 2-cycle links.
	if s.Mesh.Width != 3 || s.Mesh.Height != 3 {
		t.Errorf("mesh = %dx%d, want 3x3", s.Mesh.Width, s.Mesh.Height)
	}
	if s.LinkLatency != 2 {
		t.Errorf("link latency = %d, want 2", s.LinkLatency)
	}
	// Baseline: 2+2+4 VCs x 8 flits = 64 flits/port.
	if s.Baseline.VCsPerVN != [flit.NumVNs]int{2, 2, 4} || s.Baseline.BufDepth != 8 {
		t.Errorf("baseline = %+v", s.Baseline)
	}
	if s.Baseline.BufferSlotsPerPort() != 64 {
		t.Errorf("baseline slots/port = %d, want 64", s.Baseline.BufferSlotsPerPort())
	}
	// AFC: 8+8+16 single-flit VCs = 32 flits/port — half the baseline
	// (the lazy-VCA buffer reduction).
	if s.AFC.VCsPerVN != [flit.NumVNs]int{8, 8, 16} {
		t.Errorf("AFC VCs = %v", s.AFC.VCsPerVN)
	}
	if s.AFC.BufferSlotsPerPort() != 32 {
		t.Errorf("AFC slots/port = %d, want 32", s.AFC.BufferSlotsPerPort())
	}
	if 2*s.AFC.BufferSlotsPerPort() != s.Baseline.BufferSlotsPerPort() {
		t.Error("AFC buffering is not half the baseline")
	}
	// Section IV thresholds: 1.8/1.2 corner, 2.1/1.3 edge, 2.2/1.7 center.
	want := map[topology.Position]Thresholds{
		topology.Corner: {1.8, 1.2},
		topology.Edge:   {2.1, 1.3},
		topology.Center: {2.2, 1.7},
	}
	for pos, th := range want {
		if got := s.AFC.ThresholdsByPosition[pos]; got != th {
			t.Errorf("%s thresholds = %+v, want %+v", pos, got, th)
		}
	}
	if s.AFC.EWMAWeight != 0.99 {
		t.Errorf("EWMA weight = %g, want 0.99", s.AFC.EWMAWeight)
	}
	// X = 2L.
	if s.AFC.GossipFreeSlots != 2*s.LinkLatency {
		t.Errorf("gossip watermark = %d, want %d", s.AFC.GossipFreeSlots, 2*s.LinkLatency)
	}
}

func TestDefaultWithMesh(t *testing.T) {
	s := DefaultWithMesh(topology.NewMesh(8, 8))
	if err := s.Validate(); err != nil {
		t.Fatalf("8x8 config invalid: %v", err)
	}
	if s.Mesh.Nodes() != 64 {
		t.Errorf("nodes = %d", s.Mesh.Nodes())
	}
}

func TestValidateCatchesViolations(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*System)
	}{
		{"zero link latency", func(s *System) { s.LinkLatency = 0 }},
		{"zero eject width", func(s *System) { s.EjectWidth = 0 }},
		{"mesh wider than the route state holds", func(s *System) { s.Mesh.Width = topology.MaxDim + 1 }},
		{"mesh taller than the route state holds", func(s *System) { s.Mesh.Height = topology.MaxDim + 1 }},
		{"no baseline VCs", func(s *System) { s.Baseline.VCsPerVN[0] = 0 }},
		{"zero buffer depth", func(s *System) { s.Baseline.BufDepth = 0 }},
		{"AFC VN below 2L", func(s *System) { s.AFC.VCsPerVN[0] = 1 }},
		{"AFC over 64 slots per port", func(s *System) { s.AFC.VCsPerVN = [flit.NumVNs]int{16, 16, 33} }},
		{"gossip watermark below 2L", func(s *System) { s.AFC.GossipFreeSlots = 1 }},
		{"bad EWMA weight", func(s *System) { s.AFC.EWMAWeight = 1 }},
		{"inverted thresholds", func(s *System) {
			s.AFC.ThresholdsByPosition[topology.Center] = Thresholds{High: 1, Low: 2}
		}},
		{"missing thresholds", func(s *System) {
			delete(s.AFC.ThresholdsByPosition, topology.Edge)
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s := Default()
			// Deep-copy the map so mutations do not leak across cases.
			th := map[topology.Position]Thresholds{}
			for k, v := range s.AFC.ThresholdsByPosition {
				th[k] = v
			}
			s.AFC.ThresholdsByPosition = th
			c.mutate(&s)
			if err := s.Validate(); err == nil {
				t.Error("invalid config accepted")
			}
		})
	}
}

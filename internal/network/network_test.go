package network

import (
	"fmt"
	"testing"

	"afcnet/internal/config"
	"afcnet/internal/flit"
	"afcnet/internal/topology"
)

var allKinds = []Kind{
	Backpressured, BackpressuredIdealBypass, Bless, BlessDrop, AFC, AFCAlwaysBuffered,
}

func newTestNet(t *testing.T, kind Kind, seed int64) *Network {
	t.Helper()
	return New(Config{System: config.Default(), Kind: kind, Seed: seed, MeterEnergy: true})
}

// TestSameNetwork: configurations build the same network when they
// differ only in their seed, with an unset machine configuration read
// as config.Default(); Reset refuses any other difference and leaves
// the network as it was.
func TestSameNetwork(t *testing.T) {
	base := Config{Kind: AFC, Seed: 1, MeterEnergy: true}
	scaled := config.Default()
	scaled.AFC.ThresholdsByPosition = map[topology.Position]config.Thresholds{
		topology.Corner: {High: 1, Low: 0.5}, topology.Edge: {High: 1, Low: 0.5}, topology.Center: {High: 1, Low: 0.5},
	}
	cases := []struct {
		name string
		edit func(*Config)
		same bool
	}{
		{"another seed", func(c *Config) { c.Seed = 9 }, true},
		{"the default machine spelled out", func(c *Config) { c.System = config.Default() }, true},
		{"another kind", func(c *Config) { c.Kind = AFCAlwaysBuffered }, false},
		{"unmetered", func(c *Config) { c.MeterEnergy = false }, false},
		{"other thresholds", func(c *Config) { c.System = scaled }, false},
		{"sharded", func(c *Config) { c.Shards = 2 }, false},
	}
	for _, c := range cases {
		cfg := base
		c.edit(&cfg)
		if got := SameNetwork(base, cfg); got != c.same {
			t.Errorf("%s: SameNetwork = %v, want %v", c.name, got, c.same)
		}
		n := New(base)
		if got := n.Reset(cfg); got != c.same {
			t.Errorf("%s: Reset = %v, want %v", c.name, got, c.same)
		}
		if !c.same && n.cfg.Seed != base.Seed {
			t.Errorf("%s: a refused Reset changed the network's seed to %d", c.name, n.cfg.Seed)
		}
		n.Close()
	}
}

// TestAllToAllDelivery sends a control and a data packet from every node
// to every other node under every flow-control kind and checks complete,
// loss-free delivery.
func TestAllToAllDelivery(t *testing.T) {
	for _, kind := range allKinds {
		t.Run(kind.String(), func(t *testing.T) {
			n := newTestNet(t, kind, 42)
			nodes := n.Nodes()
			want := 0
			for s := 0; s < nodes; s++ {
				for d := 0; d < nodes; d++ {
					if s == d {
						continue
					}
					src, dst := topology.NodeID(s), topology.NodeID(d)
					n.NI(src).SendPacket(n.Now(), dst, flit.VNReq, flit.ControlPacketFlits, 0)
					n.NI(src).SendPacket(n.Now(), dst, flit.VNData, flit.DataPacketFlits, 0)
					want += 2
				}
			}
			if !n.RunUntil(n.Drained, 200_000) {
				t.Fatalf("network did not drain: delivered %d/%d packets",
					n.DeliveredPackets(), want)
			}
			if got := int(n.DeliveredPackets()); got != want {
				t.Fatalf("delivered %d packets, want %d", got, want)
			}
		})
	}
}

// TestZeroLoadLatency checks the Table I pipeline model: a single-flit
// packet traversing h hops through an idle network takes h*(2+L) cycles of
// network latency under every flow-control kind (all routers present the
// same 2-cycle pipeline; ejection happens at switch-allocation time of the
// final router).
func TestZeroLoadLatency(t *testing.T) {
	sys := config.Default()
	L := sys.LinkLatency
	for _, kind := range allKinds {
		t.Run(kind.String(), func(t *testing.T) {
			for _, tc := range []struct {
				src, dst topology.NodeID
			}{
				{0, 1}, // 1 hop
				{0, 2}, // 2 hops
				{0, 8}, // 4 hops (corner to corner)
			} {
				n := newTestNet(t, kind, 7)
				hops := n.Mesh().Distance(tc.src, tc.dst)
				n.NI(tc.src).SendPacket(n.Now(), tc.dst, flit.VNReq, 1, 0)
				if !n.RunUntil(n.Drained, 1000) {
					t.Fatalf("%d->%d: no delivery", tc.src, tc.dst)
				}
				got := n.NI(tc.dst).NetLatency().Mean()
				// Per hop: one cycle from buffer/latch write to switch
				// allocation, then L+1 cycles of switch+link traversal;
				// the final router's ejection consumes its SA stage (+1).
				want := float64(hops*(L+2) + 1)
				if got != want {
					t.Errorf("%d->%d (%d hops): net latency %.0f, want %.0f",
						tc.src, tc.dst, hops, got, want)
				}
			}
		})
	}
}

// TestFlitConservation checks that every injected flit is eventually
// delivered exactly once (reassembly counts match).
func TestFlitConservation(t *testing.T) {
	for _, kind := range allKinds {
		t.Run(kind.String(), func(t *testing.T) {
			n := newTestNet(t, kind, 99)
			nodes := n.Nodes()
			wantFlits := uint64(0)
			for i := 0; i < 200; i++ {
				src := topology.NodeID(i % nodes)
				dst := topology.NodeID((i*7 + 1) % nodes)
				if src == dst {
					dst = (dst + 1) % topology.NodeID(nodes)
				}
				vn := flit.VN(i % int(flit.NumVNs))
				l := flit.LenForVN(vn)
				n.NI(src).SendPacket(n.Now(), dst, vn, l, uint64(i))
				wantFlits += uint64(l)
				n.Step()
			}
			if !n.RunUntil(n.Drained, 500_000) {
				t.Fatalf("did not drain; delivered %d packets of %d created",
					n.DeliveredPackets(), n.CreatedPackets())
			}
			var delivered uint64
			for node := 0; node < nodes; node++ {
				delivered += n.NI(topology.NodeID(node)).DeliveredFlits()
			}
			if kind == BlessDrop {
				// Retransmissions may deliver duplicate flits; packets are
				// still exactly once.
				if n.DeliveredPackets() != n.CreatedPackets() {
					t.Fatalf("delivered %d packets, want %d", n.DeliveredPackets(), n.CreatedPackets())
				}
				return
			}
			if delivered != wantFlits {
				t.Fatalf("delivered %d flits, want %d", delivered, wantFlits)
			}
		})
	}
}

// TestEnergyAccounted checks that a run accrues energy in the expected
// components per kind (e.g. no buffer dynamic energy for deflection or
// ideal-bypass networks; zero static buffer energy only for bufferless).
func TestEnergyAccounted(t *testing.T) {
	for _, kind := range allKinds {
		t.Run(kind.String(), func(t *testing.T) {
			n := newTestNet(t, kind, 5)
			n.NI(0).SendPacket(n.Now(), 8, flit.VNData, flit.DataPacketFlits, 0)
			if !n.RunUntil(n.Drained, 10_000) {
				t.Fatal("did not drain")
			}
			b := n.TotalEnergy()
			if b.Link <= 0 {
				t.Errorf("no link energy accrued: %+v", b)
			}
			if b.RouterStatic <= 0 {
				t.Errorf("no router static energy accrued: %+v", b)
			}
			switch kind {
			case Bless, BlessDrop:
				if b.BufferDynamic != 0 || b.BufferStatic != 0 {
					t.Errorf("bufferless kind accrued buffer energy: %+v", b)
				}
			case BackpressuredIdealBypass:
				if b.BufferDynamic != 0 {
					t.Errorf("ideal bypass accrued buffer dynamic energy: %+v", b)
				}
				if b.BufferStatic <= 0 {
					t.Errorf("ideal bypass lost buffer static energy: %+v", b)
				}
			case Backpressured:
				if b.BufferDynamic <= 0 || b.BufferStatic <= 0 {
					t.Errorf("backpressured missing buffer energy: %+v", b)
				}
			}
		})
	}
}

func ExampleKind_String() {
	fmt.Println(Backpressured, Bless, AFC)
	// Output: backpressured backpressureless afc
}

func TestKindJSON(t *testing.T) {
	cases := []struct {
		k    Kind
		json string
	}{
		{Backpressured, `"backpressured"`},
		{BackpressuredIdealBypass, `"backpressured-ideal-bypass"`},
		{Bless, `"backpressureless"`},
		{BlessDrop, `"backpressureless-drop"`},
		{AFC, `"afc"`},
		{AFCAlwaysBuffered, `"afc-always-backpressured"`},
	}
	if len(cases) != NumKinds {
		t.Fatalf("table covers %d kinds, NumKinds is %d", len(cases), NumKinds)
	}
	for _, tc := range cases {
		b, err := tc.k.MarshalJSON()
		if err != nil {
			t.Fatalf("marshal %v: %v", tc.k, err)
		}
		if string(b) != tc.json {
			t.Errorf("kind %v marshals to %s, want %s", tc.k, b, tc.json)
		}
		var back Kind
		if err := back.UnmarshalJSON([]byte(tc.json)); err != nil {
			t.Fatalf("unmarshal %s: %v", tc.json, err)
		}
		if back != tc.k {
			t.Errorf("%s unmarshals to %v, want %v", tc.json, back, tc.k)
		}
	}
	for _, bad := range []string{`"nonesuch"`, `""`, `"Kind(17)"`, `"AFC"`, `"6"`, `"backpressured "`} {
		var k Kind
		if err := k.UnmarshalJSON([]byte(bad)); err == nil {
			t.Errorf("unknown kind %s accepted as %v", bad, k)
		}
	}
}

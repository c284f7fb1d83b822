package deflect

import (
	"math/rand"
	"testing"

	"afcnet/internal/flit"
	"afcnet/internal/link"
	"afcnet/internal/router"
	"afcnet/internal/topology"
)

// benchRig drives one router at the center of a 3x3 mesh with a canned
// input that stays saturated: every input port is offered a flit every
// cycle, the NI always has a flit waiting on every virtual network, and
// every output is drained. Destinations cycle over every node, so each
// port's flits take every productive set in turn. Flits circulate
// through a fixed pool (the rig is also the drop router's Nacker, taking
// dropped flits back), so the rig itself allocates nothing per cycle.
// The router is built the way the network builds it: through its slab,
// with the mesh's shared topology.Tables and an inbox tallied over the
// rig's pipes.
type benchRig struct {
	tick  func(now uint64)
	wires router.Wires
	inbox [3]int32
	node  topology.NodeID
	now   uint64
	free  []*flit.Flit
	seq   [topology.NumPorts]int
	heads [flit.NumVNs]*flit.Flit
	// routed counts the flits the router has sent to a neighbor or
	// ejected to the NI.
	routed uint64
}

const benchNode = 4 // the center of the 3x3 mesh: four wired neighbors

func newBenchRig(drop bool) *benchRig {
	mesh := topology.NewMesh(3, 3)
	g := &benchRig{node: benchNode, free: make([]*flit.Flit, 0, 512)}
	for i := 0; i < cap(g.free); i++ {
		g.free = append(g.free, new(flit.Flit))
	}
	for d := topology.Dir(0); d < topology.NumDirs; d++ {
		g.wires.Ports[d] = router.PortLinks{
			Out: link.NewData(testLinkLat + 1),
			In:  link.NewData(testLinkLat + 1),
		}
	}
	for vn := flit.VN(0); vn < flit.NumVNs; vn++ {
		g.heads[vn] = g.mint(topology.Local, vn)
	}
	g.wires.Tally(&g.inbox)
	rng := rand.New(rand.NewSource(5))
	if drop {
		r := NewDropSlab(1).New(mesh.NewTables(), benchNode, 1, rng, g.wires, &g.inbox, g, g, nil, g)
		g.tick = r.Tick
	} else {
		r := NewSlab(1).New(mesh.NewTables(), benchNode, router.PolicyRandom, 1, rng, g.wires, &g.inbox, g, g, nil)
		g.tick = r.Tick
	}
	return g
}

// mint takes a pooled flit for port p's next packet: destinations cycle
// over every node (NI traffic skips the router's own), virtual networks
// over all three.
func (g *benchRig) mint(p topology.Dir, vn flit.VN) *flit.Flit {
	k := g.seq[p]
	dst := topology.NodeID(k % 9)
	if p == topology.Local {
		if dst = topology.NodeID(k % 8); dst >= g.node {
			dst++
		}
	}
	f := g.free[len(g.free)-1]
	g.free = g.free[:len(g.free)-1]
	*f = flit.Flit{PacketID: uint64(k), Len: 1, Src: g.node, Dst: dst, VN: vn, VC: flit.NoVC}
	g.seq[p]++
	return f
}

// Peek, Pop and QueuedFlits make the rig the router's NI: one flit is
// always waiting per virtual network.
func (g *benchRig) Peek(vn flit.VN) *flit.Flit { return g.heads[vn] }

func (g *benchRig) Pop(vn flit.VN) *flit.Flit {
	f := g.heads[vn]
	g.heads[vn] = g.mint(topology.Local, vn)
	return f
}

func (g *benchRig) QueuedFlits() int { return flit.NumVNs }

// Deliver returns an ejected flit to the pool.
func (g *benchRig) Deliver(_ uint64, f *flit.Flit) {
	g.routed++
	g.free = append(g.free, f)
}

// Nack returns a dropped flit to the pool.
func (g *benchRig) Nack(_ uint64, f *flit.Flit) { g.free = append(g.free, f) }

// cycle plays the four neighbors for one cycle, then ticks the router.
func (g *benchRig) cycle() {
	now := g.now
	for d := topology.Dir(0); d < topology.NumDirs; d++ {
		pl := &g.wires.Ports[d]
		if f, ok := pl.Out.Recv(now); ok {
			g.routed++
			g.free = append(g.free, f)
		}
		pl.In.Send(now, g.mint(d, flit.VN(g.seq[d]/9%flit.NumVNs)))
	}
	g.tick(now)
	g.now++
}

func benchTick(b *testing.B, drop bool) {
	g := newBenchRig(drop)
	for i := 0; i < 2000; i++ {
		g.cycle()
	}
	routed := g.routed
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.cycle()
	}
	b.StopTimer()
	if g.routed == routed {
		b.Fatal("router routed nothing: the input is not saturating it")
	}
}

// BenchmarkTickBackpressureless times one Tick of a deflection (bless)
// router under saturation: every input port delivers a flit each cycle,
// so every output is taken and the productive-set lookup, arbitration
// and deflection run for four flits every cycle.
func BenchmarkTickBackpressureless(b *testing.B) { benchTick(b, false) }

// BenchmarkTickBackpressurelessDrop times one Tick of a drop router
// under the same saturating input: flits that lose every productive
// output are dropped and NACKed each cycle.
func BenchmarkTickBackpressurelessDrop(b *testing.B) { benchTick(b, true) }

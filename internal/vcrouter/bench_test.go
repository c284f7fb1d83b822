package vcrouter

import (
	"testing"

	"afcnet/internal/config"
	"afcnet/internal/flit"
	"afcnet/internal/link"
	"afcnet/internal/router"
	"afcnet/internal/topology"
)

// benchRig drives one baseline router at the center of a 3x3 mesh with
// a canned input that stays saturated: every input port is offered a
// single-flit packet every cycle on a virtual channel its upstream
// neighbor still holds a credit for, the NI always has a flit waiting on
// every virtual network, and every output is drained. A downstream
// neighbor consumes one flit every other cycle, returning its credit
// then, so outputs run credit-starved and the input buffers stay full —
// the congested regime the backpressured baseline is built for.
// Destinations cycle over every node. Flits circulate through a fixed
// pool, so the rig itself allocates nothing per cycle. The router is
// built the way the network builds it: through its slab, with the
// mesh's shared topology.Tables and an inbox tallied over the rig's pipes.
type benchRig struct {
	r     *Router
	wires router.Wires
	inbox [3]int32
	node  topology.NodeID
	now   uint64
	free  []*flit.Flit
	seq   [topology.NumPorts]int
	heads [flit.NumVNs]*flit.Flit
	// vnVCs lists each virtual network's VCs, as the slab numbers them,
	// and vnOf names each VC's virtual network.
	vnVCs [flit.NumVNs][]int
	vnOf  []flit.VN
	// up mirrors the upstream neighbors' credits toward r per input VC,
	// and owed the credits per output VC the downstream neighbors have
	// yet to return.
	up   [topology.NumDirs][]int
	owed [topology.NumDirs][]int
	// routed counts the flits the router has sent to a neighbor or
	// ejected to the NI.
	routed uint64
}

const benchNode = 4 // the center of the 3x3 mesh: four wired neighbors

func newBenchRig(cfg config.Baseline) *benchRig {
	mesh := topology.NewMesh(3, 3)
	g := &benchRig{node: benchNode, free: make([]*flit.Flit, 0, 1024)}
	for i := 0; i < cap(g.free); i++ {
		g.free = append(g.free, new(flit.Flit))
	}
	vcs := 0
	for vn := flit.VN(0); vn < flit.NumVNs; vn++ {
		for i := 0; i < cfg.VCsPerVN[vn]; i++ {
			g.vnVCs[vn] = append(g.vnVCs[vn], vcs)
			g.vnOf = append(g.vnOf, vn)
			vcs++
		}
	}
	for d := topology.Dir(0); d < topology.NumDirs; d++ {
		g.wires.Ports[d] = router.PortLinks{
			Out:       link.NewData(testLinkLat + 1),
			In:        link.NewData(testLinkLat + 1),
			CreditOut: link.NewCredit(testLinkLat),
			CreditIn:  link.NewCredit(testLinkLat),
			CtrlOut:   link.NewCtrl(testLinkLat),
			CtrlIn:    link.NewCtrl(testLinkLat),
		}
		g.up[d] = make([]int, vcs)
		g.owed[d] = make([]int, vcs)
		for v := range g.up[d] {
			g.up[d][v] = cfg.BufDepth
		}
	}
	for vn := flit.VN(0); vn < flit.NumVNs; vn++ {
		g.heads[vn] = g.mint(topology.Local, vn, flit.NoVC)
	}
	g.wires.Tally(&g.inbox)
	g.r = NewSlab(1, cfg).New(mesh.NewTables(), benchNode, cfg, 1, g.wires, &g.inbox, g, g, nil)
	return g
}

// mint takes a pooled flit for port p's next packet: destinations cycle
// over every node (NI traffic skips the router's own).
func (g *benchRig) mint(p topology.Dir, vn flit.VN, vc int) *flit.Flit {
	k := g.seq[p]
	dst := topology.NodeID(k % 9)
	if p == topology.Local {
		if dst = topology.NodeID(k % 8); dst >= g.node {
			dst++
		}
	}
	f := g.free[len(g.free)-1]
	g.free = g.free[:len(g.free)-1]
	*f = flit.Flit{PacketID: uint64(k), Len: 1, Src: g.node, Dst: dst, VN: vn, VC: vc}
	g.seq[p]++
	return f
}

// Peek, Pop and QueuedFlits make the rig the router's NI: one flit is
// always waiting per virtual network.
func (g *benchRig) Peek(vn flit.VN) *flit.Flit { return g.heads[vn] }

func (g *benchRig) Pop(vn flit.VN) *flit.Flit {
	f := g.heads[vn]
	g.heads[vn] = g.mint(topology.Local, vn, flit.NoVC)
	return f
}

func (g *benchRig) QueuedFlits() int { return flit.NumVNs }

// Deliver returns an ejected flit to the pool.
func (g *benchRig) Deliver(_ uint64, f *flit.Flit) {
	g.routed++
	g.free = append(g.free, f)
}

// cycle plays the four neighbors for one cycle, then ticks the router.
func (g *benchRig) cycle() {
	now := g.now
	for d := topology.Dir(0); d < topology.NumDirs; d++ {
		pl := &g.wires.Ports[d]
		if c, ok := pl.CreditOut.Recv(now); ok {
			g.up[d][c.VC]++
		}
		if f, ok := pl.Out.Recv(now); ok {
			g.routed++
			g.owed[d][f.VC]++
			g.free = append(g.free, f)
		}
		if now%2 == 0 {
			// One consumed flit per port every other cycle, lowest VC
			// first.
			for v, n := range g.owed[d] {
				if n > 0 {
					g.owed[d][v]--
					pl.CreditIn.Send(now, link.Credit{VC: v, VN: g.vnOf[v]})
					break
				}
			}
		}
		// The upstream neighbor sends on the first VC of the port's next
		// virtual network that it holds a credit for.
		vn := flit.VN(g.seq[d] / 9 % flit.NumVNs)
		for _, v := range g.vnVCs[vn] {
			if g.up[d][v] > 0 {
				g.up[d][v]--
				pl.In.Send(now, g.mint(d, vn, v))
				break
			}
		}
	}
	g.r.Tick(now)
	g.now++
}

// BenchmarkTickBackpressured times one Tick of the baseline VC router
// under saturation: its input VCs stay full behind credit-starved
// outputs, so route computation, VC allocation and both switch
// allocation stages run against mostly blocked candidates every cycle.
func BenchmarkTickBackpressured(b *testing.B) {
	g := newBenchRig(config.Default().Baseline)
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

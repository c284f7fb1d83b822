package core

import (
	"math/rand"
	"testing"

	"afcnet/internal/config"
	"afcnet/internal/flit"
	"afcnet/internal/link"
	"afcnet/internal/router"
	"afcnet/internal/topology"
)

// benchRig drives one AFC router at the center of a 3x3 mesh with a
// canned input that stays saturated: every wired input port is offered a
// flit every cycle (subject to upstream credits when the router is
// backpressured), the NI always has a flit waiting on every virtual
// network, and every output is drained. A tracked downstream neighbor
// consumes one flit every other cycle, returning its credit then, so
// outputs run credit-starved, the input buffers stay full and most
// buffered flits are ineligible in any given cycle — the congested
// regime a backpressured router exists for. Flits circulate through a
// fixed pool, so the rig itself allocates nothing per cycle. The router
// is built the way the network builds it — through its slab, with the
// mesh's shared topology.Tables and an inbox tallied over the rig's pipes —
// so the receive skips it times are the ones production runs.
type benchRig struct {
	r     *Router
	wires router.Wires
	inbox [3]int32
	node  topology.NodeID
	now   uint64
	free  []*flit.Flit
	seq   [topology.NumPorts]int
	heads [flit.NumVNs]*flit.Flit
	// up mirrors the upstream neighbors' credit counts toward r, and
	// owed the credits the downstream neighbors have yet to return; both
	// nil when r is backpressureless and nobody tracks credits.
	up   *[topology.NumDirs][flit.NumVNs]int
	owed *[topology.NumDirs][flit.NumVNs]int
	// routed counts the flits the router has sent to a neighbor or
	// ejected to the NI.
	routed uint64
}

const benchNode = 4 // the center of the 3x3 mesh: four wired neighbors

func newBenchRig(cfg config.AFC, opts Options) *benchRig {
	mesh := topology.NewMesh(3, 3)
	g := &benchRig{node: benchNode, free: make([]*flit.Flit, 0, 512)}
	for i := 0; i < cap(g.free); i++ {
		g.free = append(g.free, new(flit.Flit))
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
	}
	for vn := flit.VN(0); vn < flit.NumVNs; vn++ {
		g.heads[vn] = g.mint(topology.Local, g.nextDst(topology.Local), vn)
	}
	if opts.AlwaysBuffered {
		g.up = &[topology.NumDirs][flit.NumVNs]int{}
		g.owed = &[topology.NumDirs][flit.NumVNs]int{}
		for d := range g.up {
			g.up[d] = cfg.VCsPerVN
		}
	}
	g.wires.Tally(&g.inbox)
	g.r = NewSlab(1, cfg, testLinkLat).New(mesh.NewTables(), benchNode, cfg, testLinkLat, 1, rand.New(rand.NewSource(7)),
		g.wires, &g.inbox, g, g, nil, opts)
	return g
}

// nextDst returns port p's next destination, cycling over every node
// (NI traffic skips the router's own node).
func (g *benchRig) nextDst(p topology.Dir) topology.NodeID {
	k := g.seq[p]
	if p == topology.Local {
		d := topology.NodeID(k % 8)
		if d >= g.node {
			d++
		}
		return d
	}
	return topology.NodeID(k % 9)
}

// nextVN returns port p's next virtual network.
func (g *benchRig) nextVN(p topology.Dir) flit.VN { return flit.VN(g.seq[p] / 9 % flit.NumVNs) }

func (g *benchRig) mint(p topology.Dir, dst topology.NodeID, vn flit.VN) *flit.Flit {
	f := g.free[len(g.free)-1]
	g.free = g.free[:len(g.free)-1]
	*f = flit.Flit{PacketID: uint64(g.seq[p]), Len: 1, Src: g.node, Dst: dst, VN: vn, VC: flit.NoVC}
	g.seq[p]++
	return f
}

// Peek, Pop and QueuedFlits make the rig the router's NI: one flit is
// always waiting per virtual network.
func (g *benchRig) Peek(vn flit.VN) *flit.Flit { return g.heads[vn] }

func (g *benchRig) Pop(vn flit.VN) *flit.Flit {
	f := g.heads[vn]
	g.heads[vn] = g.mint(topology.Local, g.nextDst(topology.Local), vn)
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
		pl.CtrlOut.Recv(now)
		if c, ok := pl.CreditOut.Recv(now); ok && g.up != nil {
			g.up[d][c.VN]++
		}
		if f, ok := pl.Out.Recv(now); ok {
			g.routed++
			if g.owed != nil {
				g.owed[d][f.VN]++
			}
			g.free = append(g.free, f)
		}
		if g.owed != nil && now%2 == 0 {
			// One consumed flit per port every other cycle, lowest VN
			// first.
			for vn := flit.VN(0); vn < flit.NumVNs; vn++ {
				if g.owed[d][vn] > 0 {
					g.owed[d][vn]--
					pl.CreditIn.Send(now, link.Credit{VN: vn})
					break
				}
			}
		}
		vn := g.nextVN(d)
		if g.up != nil {
			if g.up[d][vn] == 0 {
				continue
			}
			g.up[d][vn]--
		}
		pl.In.Send(now, g.mint(d, g.nextDst(d), vn))
	}
	g.r.Tick(now)
	g.now++
}

func benchTick(b *testing.B, cfg config.AFC, opts Options, want Mode) {
	g := newBenchRig(cfg, opts)
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
	if g.r.Mode() != want {
		b.Fatalf("router left %s mode (now %s)", want, g.r.Mode())
	}
	if g.routed == routed {
		b.Fatal("router routed nothing: the input is not saturating it")
	}
}

// BenchmarkTickBuffered times one Tick of an always-backpressured AFC
// router under saturation: its buffers stay full behind credit-starved
// outputs, so the buffered-mode switch allocator must find the few
// eligible flits among many blocked ones every cycle.
func BenchmarkTickBuffered(b *testing.B) {
	benchTick(b, config.Default().AFC, Options{AlwaysBuffered: true}, ModeBuffered)
}

// BenchmarkTickBless times one Tick of an AFC router in backpressureless
// mode under saturation: every input port delivers a flit each cycle and
// the NI always has one waiting. Unreachable contention thresholds keep
// the load from forward-switching the router.
func BenchmarkTickBless(b *testing.B) {
	cfg := config.Default().AFC
	cfg.ThresholdsByPosition = map[topology.Position]config.Thresholds{
		topology.Corner: {High: 1e9, Low: 1},
		topology.Edge:   {High: 1e9, Low: 1},
		topology.Center: {High: 1e9, Low: 1},
	}
	benchTick(b, cfg, Options{}, ModeBless)
}

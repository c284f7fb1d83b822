package vcrouter

import (
	"math/rand"
	"testing"

	"afcnet/internal/config"
	"afcnet/internal/energy"
	"afcnet/internal/flit"
	"afcnet/internal/link"
	"afcnet/internal/router"
	"afcnet/internal/topology"
)

// twinCycles is how long the twin pair runs. Traffic moves through
// phases of up to 400 cycles, idle or at one of three rates, so the
// router spends whole phases quiescent.
const twinCycles = 20000

// twinRig is one router of a twin pair with its NI, its meter and the
// far ends of its wires.
type twinRig struct {
	r     *Router
	wires router.Wires
	inbox [3]int32
	ni    fakeNI
	meter *energy.Meter
}

// twinOut is what one router sent toward its neighbors in one cycle.
type twinOut struct {
	has    [topology.NumDirs][2]bool // flit, credit
	flit   [topology.NumDirs]flit.Flit
	credit [topology.NumDirs]link.Credit
}

func (g *twinRig) outputs(now uint64) (o twinOut) {
	for d := range g.wires.Ports {
		pl := &g.wires.Ports[d]
		if f, ok := pl.Out.Recv(now); ok {
			o.has[d][0], o.flit[d] = true, *f
		}
		o.credit[d], o.has[d][1] = pl.CreditOut.Recv(now)
	}
	return o
}

// TestTwinSkipContract checks the active-set kernel's skip contract at
// component level: whenever a router is Quiescent, Tick must equal
// FastForward(1). Two routers carved from one slab, with the same
// tables, run in lockstep under the same random traffic. At every cycle
// where they agree they are quiescent, twin a ticks and twin b
// fast-forwards; every flit and credit they send, every delivery, and
// the final energy must still match.
func TestTwinSkipContract(t *testing.T) {
	const node = 4 // the center of the 3x3 mesh
	sys := config.Default()
	cfg := sys.Baseline
	mesh := topology.NewMesh(3, 3)
	tables := mesh.NewTables()
	slab := NewSlab(2, cfg)
	var twins [2]*twinRig
	for i := range twins {
		g := &twinRig{meter: energy.NewMeter(energy.DefaultParams(), flit.WidthBackpressured,
			cfg.BufferSlotsPerPort(), topology.NumPorts, true)}
		for d := topology.Dir(0); d < topology.NumDirs; d++ {
			g.wires.Ports[d] = router.PortLinks{
				Out:       link.NewData(sys.LinkLatency + 1),
				In:        link.NewData(sys.LinkLatency + 1),
				CreditOut: link.NewCredit(sys.LinkLatency),
				CreditIn:  link.NewCredit(sys.LinkLatency),
				CtrlOut:   link.NewCtrl(sys.LinkLatency),
				CtrlIn:    link.NewCtrl(sys.LinkLatency),
			}
		}
		g.wires.Tally(&g.inbox)
		g.r = slab.New(tables, node, cfg, sys.EjectWidth, g.wires, &g.inbox, &g.ni, &g.ni, g.meter)
		twins[i] = g
	}
	a, b := twins[0], twins[1]

	// vnVCs numbers the VCs as the slab does; up holds each upstream
	// neighbor's credits toward the router per input VC, and owed the
	// credits each downstream neighbor has yet to return.
	var vnVCs [flit.NumVNs][]int
	var up [topology.NumDirs][]int
	var owed [topology.NumDirs][]link.Credit
	for vn := flit.VN(0); vn < flit.NumVNs; vn++ {
		for i := 0; i < cfg.VCsPerVN[vn]; i++ {
			vnVCs[vn] = append(vnVCs[vn], len(up[0]))
			for d := range up {
				up[d] = append(up[d], cfg.BufDepth)
			}
		}
	}

	rng := rand.New(rand.NewSource(1))
	var phaseLeft, rate int // rate: out of 3 per port and cycle
	quiet := 0
	var id uint64
	for now := uint64(0); now < twinCycles; now++ {
		if phaseLeft == 0 {
			phaseLeft, rate = 1+rng.Intn(400), 0
			if rng.Intn(2) == 0 {
				rate = 1 + rng.Intn(3)
			}
		}
		phaseLeft--

		oa, ob := a.outputs(now), b.outputs(now)
		if oa != ob {
			t.Fatalf("cycle %d: sent\n%+v\nvs\n%+v", now, oa, ob)
		}
		for d := topology.Dir(0); d < topology.NumDirs; d++ {
			if oa.has[d][1] {
				up[d][oa.credit[d].VC]++
			}
			if oa.has[d][0] {
				owed[d] = append(owed[d], link.Credit{VC: oa.flit[d].VC, VN: oa.flit[d].VN})
			}
			if len(owed[d]) > 0 && rng.Intn(4) != 0 {
				c := owed[d][0]
				owed[d] = owed[d][1:]
				a.wires.Ports[d].CreditIn.Send(now, c)
				b.wires.Ports[d].CreditIn.Send(now, c)
			}
			if rng.Intn(3) >= rate {
				continue
			}
			// A single-flit packet on a VC its upstream neighbor holds a
			// credit for.
			vn := flit.VN(rng.Intn(flit.NumVNs))
			vcs := vnVCs[vn]
			vc := vcs[rng.Intn(len(vcs))]
			if up[d][vc] == 0 {
				continue
			}
			up[d][vc]--
			id++
			f := flit.Flit{PacketID: id, Len: 1, Dst: topology.NodeID(rng.Intn(9)), VN: vn, VC: vc, CreatedAt: now}
			fa, fb := f, f
			a.wires.Ports[d].In.Send(now, &fa)
			b.wires.Ports[d].In.Send(now, &fb)
		}
		// A burst of packets on every virtual network at once. The local
		// input port drains at most one flit a cycle, so bursts are
		// rarer than the other twins'.
		if rng.Intn(60) == 0 {
			for vn := flit.VN(0); vn < flit.NumVNs; vn++ {
				for k := rng.Intn(3); k >= 0; k-- {
					dst := topology.NodeID(rng.Intn(8))
					if dst >= node {
						dst++
					}
					id++
					p := flit.Packet{ID: id, Src: node, Dst: dst, VN: vn, Len: 1 + rng.Intn(4), CreatedAt: now}
					a.ni.queues[vn] = append(a.ni.queues[vn], p.Flits()...)
					b.ni.queues[vn] = append(b.ni.queues[vn], p.Flits()...)
				}
			}
		}

		qa, qb := a.r.Quiescent(now), b.r.Quiescent(now)
		if qa != qb {
			t.Fatalf("cycle %d: Quiescent %v vs %v", now, qa, qb)
		}
		a.r.Tick(now)
		if qa {
			b.r.FastForward(1)
			quiet++
		} else {
			b.r.Tick(now)
		}
		if len(a.ni.delivered) != len(b.ni.delivered) {
			t.Fatalf("cycle %d: delivered %d flits vs %d", now, len(a.ni.delivered), len(b.ni.delivered))
		}
		for i, f := range a.ni.delivered {
			if *f != *b.ni.delivered[i] {
				t.Fatalf("cycle %d: delivered %+v vs %+v", now, *f, *b.ni.delivered[i])
			}
		}
		a.ni.delivered, b.ni.delivered = a.ni.delivered[:0], b.ni.delivered[:0]
	}
	if ea, eb := a.meter.Breakdown(), b.meter.Breakdown(); ea != eb {
		t.Fatalf("energy %+v vs %+v", ea, eb)
	}
	if quiet < 1000 {
		t.Fatalf("only %d of %d cycles quiescent: the contract went untested", quiet, twinCycles)
	}
	t.Logf("%d of %d cycles quiescent", quiet, twinCycles)
}

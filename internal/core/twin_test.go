package core

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

// twinCycles is how long each twin pair runs. Traffic moves through
// phases of up to 400 cycles, idle or at one of three rates, so the
// adaptive router switches modes and still spends whole phases
// quiescent.
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
	has    [topology.NumDirs][3]bool // flit, credit, ctrl
	flit   [topology.NumDirs]flit.Flit
	credit [topology.NumDirs]link.Credit
	ctrl   [topology.NumDirs]link.Ctrl
}

func (g *twinRig) outputs(now uint64) (o twinOut) {
	for d := range g.wires.Ports {
		pl := &g.wires.Ports[d]
		if f, ok := pl.Out.Recv(now); ok {
			o.has[d][0], o.flit[d] = true, *f
		}
		o.credit[d], o.has[d][1] = pl.CreditOut.Recv(now)
		o.ctrl[d], o.has[d][2] = pl.CtrlOut.Recv(now)
	}
	return o
}

// twinNeighbor models the router's neighbor on one port, in both roles.
// Upstream, it tracks the router's free input slots per virtual network
// while the router has asked for credits. Downstream, while it is itself
// backpressured, it owes a credit for every flit the router sent under
// credit accounting and returns them one per cycle at random.
type twinNeighbor struct {
	tracking bool
	credits  [flit.NumVNs]int

	buffered  bool
	countFrom uint64 // first arrival the router counted against credits
	owed      []flit.VN
}

// TestTwinSkipContract checks the active-set kernel's skip contract at
// component level: whenever a router is Quiescent, Tick must equal
// FastForward(1). Two routers carved from one slab, with the same
// tables and seed, run in lockstep under the same random traffic. At
// every cycle where they agree they are quiescent, twin a ticks and twin
// b fast-forwards; every flit, credit and mode notification they send,
// every delivery, and the final energy and mode accounting must still
// match.
func TestTwinSkipContract(t *testing.T) {
	t.Run("adaptive", func(t *testing.T) { runTwins(t, Options{}) })
	t.Run("always-backpressured", func(t *testing.T) { runTwins(t, Options{AlwaysBuffered: true}) })
	t.Run("misroute-threshold", func(t *testing.T) { runTwins(t, Options{MisrouteThreshold: 2}) })
}

func runTwins(t *testing.T, opts Options) {
	const node = 4 // the center of the 3x3 mesh
	cfg := config.Default()
	mesh := topology.NewMesh(3, 3)
	tables := mesh.NewTables()
	slab := NewSlab(2, cfg.AFC, cfg.LinkLatency)
	var twins [2]*twinRig
	for i := range twins {
		g := &twinRig{meter: energy.NewMeter(energy.DefaultParams(), flit.WidthAFC,
			cfg.AFC.BufferSlotsPerPort(), topology.NumPorts, true)}
		for d := topology.Dir(0); d < topology.NumDirs; d++ {
			g.wires.Ports[d] = router.PortLinks{
				Out:       link.NewData(cfg.LinkLatency + 1),
				In:        link.NewData(cfg.LinkLatency + 1),
				CreditOut: link.NewCredit(cfg.LinkLatency),
				CreditIn:  link.NewCredit(cfg.LinkLatency),
				CtrlOut:   link.NewCtrl(cfg.LinkLatency),
				CtrlIn:    link.NewCtrl(cfg.LinkLatency),
			}
		}
		g.wires.Tally(&g.inbox)
		g.r = slab.New(tables, node, cfg.AFC, cfg.LinkLatency, cfg.EjectWidth, rand.New(rand.NewSource(13)),
			g.wires, &g.inbox, &g.ni, &g.ni, g.meter, opts)
		twins[i] = g
	}
	a, b := twins[0], twins[1]

	// An always-backpressured router counts credits from cycle 0, and so
	// do its neighbors.
	var nbs [topology.NumDirs]twinNeighbor
	if opts.AlwaysBuffered {
		for d := range nbs {
			nbs[d] = twinNeighbor{tracking: true, credits: cfg.AFC.VCsPerVN, buffered: true}
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
			nb := &nbs[d]
			if oa.has[d][2] {
				switch oa.ctrl[d] {
				case link.CtrlStartCredits:
					nb.tracking, nb.credits = true, cfg.AFC.VCsPerVN
				case link.CtrlStopCredits:
					nb.tracking = false
				}
			}
			if oa.has[d][1] && nb.tracking {
				nb.credits[oa.credit[d].VN]++
			}
			if oa.has[d][0] && nb.buffered && now >= nb.countFrom {
				nb.owed = append(nb.owed, oa.flit[d].VN)
			}
			// The adaptive router's neighbors switch modes now and
			// then, which exercises its credit masking and gossip.
			if !opts.AlwaysBuffered && rng.Intn(1000) == 0 {
				c := link.CtrlStopCredits
				if nb.buffered = !nb.buffered; nb.buffered {
					c = link.CtrlStartCredits
					nb.countFrom = now + uint64(2*cfg.LinkLatency) + 1
				}
				nb.owed = nb.owed[:0]
				a.wires.Ports[d].CtrlIn.Send(now, c)
				b.wires.Ports[d].CtrlIn.Send(now, c)
			}
			if nb.buffered && len(nb.owed) > 0 && rng.Intn(4) != 0 {
				c := link.Credit{VC: flit.NoVC, VN: nb.owed[0]}
				nb.owed = nb.owed[1:]
				a.wires.Ports[d].CreditIn.Send(now, c)
				b.wires.Ports[d].CreditIn.Send(now, c)
			}
			if rng.Intn(3) >= rate {
				continue
			}
			vn := flit.VN(rng.Intn(flit.NumVNs))
			if nb.tracking {
				if nb.credits[vn] == 0 {
					continue
				}
				nb.credits[vn]--
			}
			id++
			f := flit.Flit{PacketID: id, Len: 1, Dst: topology.NodeID(rng.Intn(9)), VN: vn, VC: flit.NoVC, CreatedAt: now}
			fa, fb := f, f
			a.wires.Ports[d].In.Send(now, &fa)
			b.wires.Ports[d].In.Send(now, &fb)
		}
		// A burst on every virtual network at once, so the injection
		// round-robin decides which goes first. Bursts come in idle
		// phases too, where they find the injection stage after a run
		// of skipped cycles.
		if rng.Intn(20) == 0 {
			for vn := flit.VN(0); vn < flit.NumVNs; vn++ {
				for k := rng.Intn(3); k >= 0; k-- {
					dst := topology.NodeID(rng.Intn(8))
					if dst >= node {
						dst++
					}
					id++
					f := flit.Flit{PacketID: id, Len: 1, Src: node, Dst: dst, VN: vn, VC: flit.NoVC, CreatedAt: now}
					fa, fb := f, f
					a.ni.queues[vn] = append(a.ni.queues[vn], &fa)
					b.ni.queues[vn] = append(b.ni.queues[vn], &fb)
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
	if ma, mb := a.r.ModeCycles(), b.r.ModeCycles(); ma != mb {
		t.Fatalf("mode cycles %v vs %v", ma, mb)
	}
	if ia, ib := a.r.Intensity(), b.r.Intensity(); ia != ib {
		t.Fatalf("intensity %v vs %v", ia, ib)
	}
	if quiet < 1000 {
		t.Fatalf("only %d of %d cycles quiescent: the contract went untested", quiet, twinCycles)
	}
	if !opts.AlwaysBuffered && (a.r.ForwardSwitches() == 0 || a.r.ReverseSwitches() == 0) {
		t.Fatalf("%d forward and %d reverse switches: the modes went untested",
			a.r.ForwardSwitches(), a.r.ReverseSwitches())
	}
	t.Logf("%d of %d cycles quiescent; %d forward (%d gossip), %d reverse switches, %d escapes",
		quiet, twinCycles, a.r.ForwardSwitches(), a.r.GossipSwitches(), a.r.ReverseSwitches(), a.r.EscapeEvents())
}

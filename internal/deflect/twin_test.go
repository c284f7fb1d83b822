package deflect

import (
	"math/rand"
	"testing"

	"afcnet/internal/energy"
	"afcnet/internal/flit"
	"afcnet/internal/link"
	"afcnet/internal/router"
	"afcnet/internal/topology"
)

// twinCycles is how long each twin pair runs. Traffic alternates
// between busy and idle phases of about 50 cycles, so roughly half the
// cycles find the router quiescent.
const twinCycles = 20000

// twinRig is one router of a twin pair with its NI, its Nacker, its
// meter and the far ends of its wires.
type twinRig struct {
	r interface {
		Tick(now uint64)
		Quiescent(now uint64) bool
		FastForward(k uint64)
	}
	wires router.Wires
	inbox [3]int32
	ni    fakeNI
	nack  recordingNacker
	meter *energy.Meter
}

// newTwinRig wires a router at the center of a 3x3 mesh: all four
// neighbors exist.
func newTwinRig() *twinRig {
	g := &twinRig{meter: energy.NewMeter(energy.DefaultParams(), flit.WidthBackpressureless, 0, topology.NumPorts, true)}
	for d := range g.wires.Ports {
		g.wires.Ports[d] = router.PortLinks{Out: link.NewData(testLinkLat + 1), In: link.NewData(testLinkLat + 1)}
	}
	g.wires.Tally(&g.inbox)
	return g
}

// twinOut is what one router sent toward its neighbors in one cycle.
type twinOut struct {
	has  [topology.NumDirs]bool
	flit [topology.NumDirs]flit.Flit
}

func (g *twinRig) outputs(now uint64) (o twinOut) {
	for d := range g.wires.Ports {
		if f, ok := g.wires.Ports[d].Out.Recv(now); ok {
			o.has[d], o.flit[d] = true, *f
		}
	}
	return o
}

// sameFlits fails unless a and b hold equal flits in the same order.
func sameFlits(t *testing.T, now uint64, what string, a, b []*flit.Flit) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("cycle %d: %s %d flits vs %d", now, what, len(a), len(b))
	}
	for i := range a {
		if *a[i] != *b[i] {
			t.Fatalf("cycle %d: %s %+v vs %+v", now, what, *a[i], *b[i])
		}
	}
}

// TestTwinSkipContract checks the active-set kernel's skip contract at
// component level: whenever a router is Quiescent, Tick must equal
// FastForward(1). Two routers carved from one slab, with the same
// tables and seed, run in lockstep under the same random traffic. At
// every cycle where they agree they are quiescent, twin a ticks and twin
// b fast-forwards; every flit they send, deliver or NACK, and the final
// energy, must still match.
func TestTwinSkipContract(t *testing.T) {
	for _, drop := range []bool{false, true} {
		name := "bless"
		if drop {
			name = "drop"
		}
		t.Run(name, func(t *testing.T) { runTwins(t, drop) })
	}
}

func runTwins(t *testing.T, drop bool) {
	const node = 4 // the center of the 3x3 mesh
	mesh := topology.NewMesh(3, 3)
	tables := mesh.NewTables()
	a, b := newTwinRig(), newTwinRig()
	if drop {
		slab := NewDropSlab(2)
		for _, g := range []*twinRig{a, b} {
			g.r = slab.New(tables, node, 1, rand.New(rand.NewSource(3)), g.wires, &g.inbox,
				&g.ni, &g.ni, g.meter, &g.nack)
		}
	} else {
		slab := NewSlab(2)
		for _, g := range []*twinRig{a, b} {
			g.r = slab.New(tables, node, router.PolicyRandom, 1, rand.New(rand.NewSource(9)),
				g.wires, &g.inbox, &g.ni, &g.ni, g.meter)
		}
	}

	rng := rand.New(rand.NewSource(1))
	busy := false
	quiet := 0
	var id uint64
	// offer hands both twins their own copy of f.
	offer := func(f flit.Flit, to func(g *twinRig, f *flit.Flit)) {
		id++
		f.PacketID, f.Len, f.VC = id, 1, flit.NoVC
		fa, fb := f, f
		to(a, &fa)
		to(b, &fb)
	}
	for now := uint64(0); now < twinCycles; now++ {
		if rng.Intn(50) == 0 {
			busy = !busy
		}
		if oa, ob := a.outputs(now), b.outputs(now); oa != ob {
			t.Fatalf("cycle %d: sent\n%+v\nvs\n%+v", now, oa, ob)
		}
		if busy {
			for d := topology.Dir(0); d < topology.NumDirs; d++ {
				if rng.Intn(3) == 0 {
					continue
				}
				offer(flit.Flit{Src: 0, Dst: topology.NodeID(rng.Intn(9)), VN: flit.VN(rng.Intn(flit.NumVNs)), CreatedAt: now},
					func(g *twinRig, f *flit.Flit) { g.wires.Ports[d].In.Send(now, f) })
			}
			// A burst on every virtual network at once, so the injection
			// round-robin decides which goes first.
			if rng.Intn(10) == 0 {
				for vn := flit.VN(0); vn < flit.NumVNs; vn++ {
					for k := rng.Intn(3); k >= 0; k-- {
						dst := topology.NodeID(rng.Intn(8))
						if dst >= node {
							dst++
						}
						offer(flit.Flit{Src: node, Dst: dst, VN: vn, CreatedAt: now},
							func(g *twinRig, f *flit.Flit) { g.ni.queues[vn] = append(g.ni.queues[vn], f) })
					}
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
		sameFlits(t, now, "delivered", a.ni.delivered, b.ni.delivered)
		sameFlits(t, now, "nacked", a.nack.nacks, b.nack.nacks)
		a.ni.delivered, b.ni.delivered = a.ni.delivered[:0], b.ni.delivered[:0]
		a.nack.nacks, b.nack.nacks = a.nack.nacks[:0], b.nack.nacks[:0]
	}
	if ea, eb := a.meter.Breakdown(), b.meter.Breakdown(); ea != eb {
		t.Fatalf("energy %+v vs %+v", ea, eb)
	}
	if quiet < 1000 {
		t.Fatalf("only %d of %d cycles quiescent: the contract went untested", quiet, twinCycles)
	}
	t.Logf("%d of %d cycles quiescent", quiet, twinCycles)
}

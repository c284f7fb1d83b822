package deflect

import (
	"afcnet/internal/energy"
	"afcnet/internal/flit"
	"afcnet/internal/router"
	"afcnet/internal/topology"
)

type latched struct {
	f         *flit.Flit
	arrivedAt uint64
}

// stage is the shell the deflection and drop routers share: pipeline
// latches that every flit leaves the cycle after it arrives, the
// injection stage, the wiring, and the methods over them. Each router
// embeds it first, so the fields Quiescent and FastForward touch lead
// its slab slot (the hot/cold split of core.Router).
type stage struct {
	// --- hot tick-path core (Quiescent + FastForward) ---

	// dead freezes the router entirely (fault injection): Tick and
	// FastForward become no-ops and Quiescent reports true; latched
	// flits stay parked and countable.
	dead    bool
	latches []latched
	// inbox is this router's slot of the network's per-node aggregate
	// in-flight slab (see router.Wires.Tally): one load replaces
	// Quiescent's pipe scan.
	inbox *[3]int32
	meter *energy.Meter
	// src is the node's NI; Quiescent reads its O(1) queue total.
	src router.LocalSource
	inj router.Injection

	// nbr lists the directions with a wired inbound data pipe, so the
	// per-cycle receive loop skips the empty ports of edge and corner
	// routers. A view into the network's shared topology.Tables.
	nbr []topology.Dir
	// blockedOut marks output ports whose data link is fault-blocked
	// (dead, or throttled closed this duty window); each router's port
	// assignment treats them like missing links.
	blockedOut [topology.NumDirs]bool
	wires      router.Wires
	sink       router.LocalSink
	node       topology.NodeID
	ejectWidth int
}

func (s *stage) init(tables *topology.Tables, node topology.NodeID, ejectWidth int, wires router.Wires,
	inbox *[3]int32, src router.LocalSource, sink router.LocalSink, meter *energy.Meter) {

	s.node = node
	s.wires = wires
	s.inbox = inbox
	s.src = src
	s.sink = sink
	s.meter = meter
	s.ejectWidth = ejectWidth
	s.inj.Init()
	s.nbr = tables.Neighbors(node)
}

// reset rewinds the shared state to its freshly constructed value.
func (s *stage) reset() {
	s.inj.Reset()
	s.latches = s.latches[:0]
	s.blockedOut = [topology.NumDirs]bool{}
	s.dead = false
}

// Node implements router.Router.
func (s *stage) Node() topology.NodeID { return s.node }

// SetDead freezes the router entirely (scenario dead-router fault):
// Tick and FastForward become no-ops and Quiescent reports true, so
// latched flits stay parked — still visible to ForEachFlit, keeping the
// checker's conservation ledger balanced.
func (s *stage) SetDead() { s.dead = true }

// LatchedFlits returns the number of flits currently held in pipeline
// latches (drain checks).
func (s *stage) LatchedFlits() int { return len(s.latches) }

// ForEachFlit calls fn for every flit currently latched in this router
// (invariant checker's conservation and age scans).
func (s *stage) ForEachFlit(fn func(*flit.Flit)) {
	for _, l := range s.latches {
		fn(l.f)
	}
}

// Quiescent implements the kernel's active-set contract (sim.Quiescer):
// ticking is a provable no-op when no flit is latched, in flight toward
// this router, or awaiting injection (the drop router's retransmissions
// enqueue into the NI, so NACK wakeups arrive through the source check).
// An idle tick draws no randomness (Assign returns early on no flits;
// rand.Shuffle of none makes no calls) and mutates only the meter and
// the injection stage, both replayed exactly by FastForward: the
// Tick == FastForward(1) equivalence the sharded tick's skip decision
// leans on (see router.Router).
func (s *stage) Quiescent(now uint64) bool {
	if s.dead {
		return true
	}
	if len(s.latches) != 0 {
		return false
	}
	// Data pipes are the only wake source: no credits, no control line.
	if s.inbox[0] != 0 {
		return false
	}
	return s.src.QueuedFlits() == 0
}

// FastForward applies k skipped idle cycles (sim.Quiescer): static
// energy and the injection stage's idle cycles.
func (s *stage) FastForward(k uint64) {
	if s.dead {
		return
	}
	if s.meter != nil {
		s.meter.StaticTicks(k)
	}
	s.inj.Idle(k)
}

// eject delivers f to the node's NI.
func (s *stage) eject(now uint64, f *flit.Flit) {
	if s.meter != nil {
		s.meter.SwArb()
		s.meter.Xbar()
	}
	s.sink.Deliver(now, f)
}

// send puts f on output d's link.
func (s *stage) send(now uint64, d topology.Dir, f *flit.Flit) {
	f.Hops++
	s.wires.Ports[d].Out.Send(now, f)
	if s.meter != nil {
		s.meter.SwArb()
		s.meter.Xbar()
		s.meter.LinkHop()
	}
}

// receive latches this cycle's arrivals for dispatch next cycle.
func (s *stage) receive(now uint64) {
	// inbox is the aggregate in-flight count toward this node: zero
	// means every Recv below would miss, so skip the scan outright.
	if s.inbox[0] == 0 {
		return
	}
	for _, d := range s.nbr {
		pl := &s.wires.Ports[d]
		if f, ok := pl.In.Recv(now); ok {
			s.latches = append(s.latches, latched{f: f, arrivedAt: now})
			if s.meter != nil {
				s.meter.Latch()
			}
		}
	}
}

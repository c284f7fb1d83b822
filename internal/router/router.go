// Package router defines the interfaces and helpers shared by all four
// router types — the backpressured baseline (vcrouter), the
// backpressureless deflection and drop routers (deflect), and AFC
// (core): the Router interface, the link bundles that wire routers to
// their neighbors and to their per-node inbox tally, the local-port
// interfaces to the network interface (LocalSource.QueuedFlits is the
// O(1) queue total every router's quiescence test and injection skip
// read), round-robin arbitration, and what the backpressureless datapaths
// share: the deflection port-assignment engine (Deflector) and the
// injection stage (Injection).
package router

import (
	"fmt"
	"math/bits"

	"afcnet/internal/flit"
	"afcnet/internal/link"
	"afcnet/internal/sim"
	"afcnet/internal/topology"
)

// Router is one mesh router. Tick performs one cycle of operation:
// process arrivals latched in previous cycles, arbitrate, transmit, and
// latch this cycle's arrivals.
//
// Shard safety: the sharded tick (internal/network's two-phase barrier)
// runs whole row bands of routers concurrently within one cycle, so
// Tick must touch only state the router owns — its own registers and
// meters, its local NI, and the pipes it holds an end of. Anything
// network-global or belonging to another node must go through a staged
// pipe or the network's effect journals; see internal/network/shard.go.
// Implementations must also keep the Quiescer contract exact: whenever
// Quiescent reports true, Tick is bit-for-bit equivalent to
// FastForward(1) — the sharded skip decision is made from a
// start-of-cycle view of the pipe counters and leans on that
// equivalence to stay serial-identical.
type Router interface {
	sim.Ticker
	Node() topology.NodeID
}

// LocalSink receives flits ejected at this node. The network interface
// implements it; per the paper, receive-side buffering is provisioned by
// MSHRs so the sink always accepts.
type LocalSink interface {
	Deliver(now uint64, f *flit.Flit)
}

// LocalSource supplies flits awaiting injection, one FIFO per virtual
// network. Routers pull from it subject to their own injection policy
// (buffer space for backpressured routers; a free output port for
// backpressureless routers, which is the only backpressure they exert).
type LocalSource interface {
	// Peek returns the next flit to inject on vn without removing it, or
	// nil if the vn queue is empty. Peek may packetize: a source can keep
	// a queued packet whole until Peek first reaches it. Repeated Peeks
	// return the same flit until Pop removes it.
	Peek(vn flit.VN) *flit.Flit
	// Pop removes and returns the next flit on vn, or nil.
	Pop(vn flit.VN) *flit.Flit
	// QueuedFlits returns the total flits queued over every virtual
	// network, in O(1): zero means every Peek would return nil.
	QueuedFlits() int
}

// PortLinks bundles the channels of one mesh port. For a port facing
// direction d at node n, Out/CreditIn/CtrlOut connect toward the neighbor
// in direction d and In/CreditOut/CtrlIn connect from it. Ports at mesh
// boundaries have all-nil links.
type PortLinks struct {
	Out *link.Data // flits we transmit
	In  *link.Data // flits arriving from the neighbor

	CreditOut *link.CreditLink // credits we return upstream (pairs with In)
	CreditIn  *link.CreditLink // credits arriving from downstream (pairs with Out)

	CtrlOut *link.CtrlLink // our mode notifications to the neighbor
	CtrlIn  *link.CtrlLink // the neighbor's mode notifications to us
}

// Exists reports whether this port is wired (false at mesh boundaries).
func (p PortLinks) Exists() bool { return p.Out != nil }

// Wires is the full set of mesh-port links of one router, indexed by
// direction.
type Wires struct {
	Ports [topology.NumDirs]PortLinks
}

// Tally attaches every inbound pipe of w to its column of inbox, the
// router's per-node in-flight tally (see link.Pipe.SetTally): In to [0]
// (data), CreditIn to [1] (credit), CtrlIn to [2] (ctrl). Each column
// then mirrors the summed InFlight of its class at all times, which is
// what lets a router skip a receive scan whose class is idle and decide
// quiescence from one cache line. Build-time wiring: the pipes must be
// empty.
func (w *Wires) Tally(inbox *[3]int32) {
	for d := range w.Ports {
		p := &w.Ports[d]
		if p.In != nil {
			p.In.SetTally(&inbox[0])
		}
		if p.CreditIn != nil {
			p.CreditIn.SetTally(&inbox[1])
		}
		if p.CtrlIn != nil {
			p.CtrlIn.SetTally(&inbox[2])
		}
	}
}

// InFlight returns the summed InFlight of w's inbound pipes, by Tally's
// columns: what a correctly wired inbox holds.
func (w *Wires) InFlight() [3]int32 {
	var t [3]int32
	for d := range w.Ports {
		p := &w.Ports[d]
		if p.In != nil {
			t[0] += int32(p.In.InFlight())
		}
		if p.CreditIn != nil {
			t[1] += int32(p.CreditIn.InFlight())
		}
		if p.CtrlIn != nil {
			t[2] += int32(p.CtrlIn.InFlight())
		}
	}
	return t
}

// RoundRobin is a stateful round-robin pointer over n slots.
type RoundRobin struct {
	n    int
	next int
}

// Init (re)initializes an arbiter over n slots in place. Arbiters are
// embedded by value in slab-resident router state, so the cursor lives
// inside the router's own cache lines instead of behind a per-port heap
// pointer.
func (r *RoundRobin) Init(n int) {
	if n <= 0 {
		panic(fmt.Sprintf("router: round-robin over %d slots", n))
	}
	r.n = n
	r.next = 0
}

// Pick returns the first index i (scanning round-robin from the pointer)
// for which ok(i) is true, advancing the pointer past the grant, or -1 if
// none qualifies.
func (r *RoundRobin) Pick(ok func(i int) bool) int {
	for off := 0; off < r.n; off++ {
		i := (r.next + off) % r.n
		if ok(i) {
			r.next = (i + 1) % r.n
			return i
		}
	}
	return -1
}

// Next grants the slot at the pointer unconditionally and advances it —
// the devirtualized equivalent of Pick with an always-true predicate
// (the injection stage's per-cycle arbitration, Injection.Start).
func (r *RoundRobin) Next() int {
	i := r.next
	if i+1 == r.n {
		r.next = 0
	} else {
		r.next = i + 1
	}
	return i
}

// PickFirst grants the first slot whose bit is set in mask (bit i = slot
// i; bits at or above n must be clear), scanning round-robin from the
// pointer, and advances the pointer past the grant; -1 if mask is zero.
// It is Pick with the predicate "bit i is set", found with one
// trailing-zero count instead of a walk over the slots. Callers that can
// compute every eligible slot as a mask use it in place of a per-slot
// predicate.
func (r *RoundRobin) PickFirst(mask uint64) int {
	if mask == 0 {
		return -1
	}
	// The set bits at or after the pointer, else the wrapped-around ones.
	m := mask &^ (1<<uint(r.next) - 1)
	if m == 0 {
		m = mask
	}
	i := bits.TrailingZeros64(m)
	if i+1 == r.n {
		r.next = 0
	} else {
		r.next = i + 1
	}
	return i
}

// Advance rotates the pointer as if k consecutive always-granting Pick
// calls had run — each grants the slot at the pointer and moves it one
// position. The injection stage arbitrates with an always-true
// predicate every cycle, so it replays k skipped idle cycles with
// Advance(k) (Injection.Idle).
func (r *RoundRobin) Advance(k uint64) {
	r.next = int((uint64(r.next) + k%uint64(r.n)) % uint64(r.n))
}

// Reset rewinds the pointer to slot 0, the state of a fresh arbiter.
func (r *RoundRobin) Reset() { r.next = 0 }

// FaultInjectable is implemented by every router kind to support the
// scenario layer's fault injection (internal/scenario). All calls come
// from serial ticker context (never inside a sharded parallel phase).
type FaultInjectable interface {
	// SetPortBlocked marks (or clears) the data path of output d as
	// unusable: routing treats the link as missing. Used both for
	// permanent dead links and for duty-cycle link throttling.
	SetPortBlocked(d topology.Dir, blocked bool)
	// SetPortDead permanently kills output d: data is blocked and, on
	// kinds that carry them, credit/control traffic stops too.
	SetPortDead(d topology.Dir)
	// SetDead freezes the whole router: Tick and FastForward become
	// no-ops and Quiescent reports true. Held flits stay parked but
	// remain visible to ForEachFlit, so conservation ledgers balance.
	SetDead()
}

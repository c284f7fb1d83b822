// Package deflect implements the backpressureless routers of the paper.
//
// Router is the flit-by-flit deflection (hot-potato) router the paper
// evaluates as "backpressureless": on link contention all but one flit are
// misrouted rather than buffered, so the router never exerts backpressure
// on network ports and needs no input buffers (only pipeline latches).
// Arbitration is randomized Chaos-style by default (Section II: priorities
// are not fundamental; randomization gives a probabilistic — and strong —
// livelock-freedom guarantee), with an oldest-first policy available for
// ablation.
//
// DropRouter is the drop-based variant (SCARAB-like): contending flits
// that cannot take a productive port are dropped and NACKed to the source
// for retransmission. The paper notes this variant saturates at lower
// loads than deflection, which the open-loop sweep reproduces.
//
// Pipeline (Table I): stage 1 is combined routing + port-priority switch
// arbitration, stage 2 is switch traversal plus link traversal with the
// latch write absorbed into link traversal — the same 2-cycle router as
// the baseline. The only backpressure is at the injection port: a new flit
// is accepted only if an output port remains free after all network flits
// are dispatched (footnote 3 of the paper).
package deflect

import (
	"fmt"
	"math/rand"

	"afcnet/internal/energy"
	"afcnet/internal/flit"
	"afcnet/internal/router"
	"afcnet/internal/topology"
)

type latched struct {
	f         *flit.Flit
	arrivedAt uint64
}

// Router is a backpressureless deflection router for one node.
//
// The field order is a deliberate hot/cold split (see core.Router): the
// leading fields are what the quiescence probe and FastForward touch
// every cycle; the tail is cold configuration/fault/stats state.
// Routers are normally carved from a Slab in ascending node order —
// band-major for the sharded tick's row bands.
type Router struct {
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
	src    router.LocalSource
	injArb router.RoundRobin

	// injArmedAt models the per-VN injection-stage registers: a flit at
	// the head of a VN's NI queue becomes eligible for port assignment
	// one cycle after it reaches the head, so injected flits see the same
	// 2-cycle router pipeline as network flits.
	injArmedAt [flit.NumVNs]uint64

	// --- active-tick working set ---

	defl  router.Deflector
	flits []*flit.Flit // scratch, parallel prefix of latches
	// nbr lists the directions with a wired inbound data pipe, so the
	// per-cycle receive loop skips the empty ports of edge and corner
	// routers. A view into the network's shared topology.Tables.
	nbr []topology.Dir

	// blockedOut marks output ports whose data link is fault-blocked
	// (dead, or throttled closed this duty window); port assignment
	// treats them like missing links and deflects around the fault.
	blockedOut   [topology.NumDirs]bool
	blockedCount int
	// parked counts overflow flits held back by the fault transient
	// (more latched flits than surviving outputs). While backlog is
	// draining the no-output condition stays legitimate even after a
	// throttled link reopens and blockedCount returns to zero.
	parked int

	wires router.Wires
	sink  router.LocalSink

	// --- cold config/stats tail ---

	node       topology.NodeID
	ejectWidth int

	// Stats
	deflections uint64
}

// Slab is a contiguous bank of deflection routers, carved in ascending
// node order (band-major for the sharded tick's row bands).
type Slab struct {
	routers []Router
	next    int
}

// NewSlab returns a slab with room for count routers.
func NewSlab(count int) *Slab {
	return &Slab{routers: make([]Router, count)}
}

// New carves the next router from the slab and initializes it at node.
// tables is the network's shared route tables (the router's nbr slice
// and its deflector's route table are views into it) and inbox the
// node's in-flight tally, which wires' inbound pipes feed
// (router.Wires.Tally). rng drives the randomized arbitration policy.
func (s *Slab) New(tables *topology.Tables, node topology.NodeID, policy router.DeflectPolicy,
	ejectWidth int, rng *rand.Rand, wires router.Wires, inbox *[3]int32, src router.LocalSource,
	sink router.LocalSink, meter *energy.Meter) *Router {

	if s.next >= len(s.routers) {
		panic("deflect: router slab exhausted")
	}
	r := &s.routers[s.next]
	r.node = node
	r.wires = wires
	r.inbox = inbox
	r.src = src
	r.sink = sink
	r.meter = meter
	r.ejectWidth = ejectWidth
	r.injArb.Init(flit.NumVNs)
	r.nbr = tables.Neighbors(node)
	r.defl.Init(node, policy, rng, tables.Routes(node))
	s.next++
	return r
}

// DORTable exposes the deflector's per-destination DOR table and
// NeighborDirs the wired-direction list (aliasing tests assert they
// share the network's topology.Tables backing).
func (r *Router) DORTable() []topology.Dir { return r.defl.DORTable() }

// NeighborDirs reports the router's wired mesh directions.
func (r *Router) NeighborDirs() []topology.Dir { return r.nbr }

// Node implements router.Router.
func (r *Router) Node() topology.NodeID { return r.node }

// Reset rewinds the router to its freshly constructed state (empty
// latches, arbiters at slot 0, stats zeroed), reseeding the arbitration
// randomness with seed — the root of the same stream number a fresh
// construction would have consumed. Part of the cross-cell
// network-reuse path.
func (r *Router) Reset(seed int64) {
	r.defl.Reseed(seed)
	r.injArb.Reset()
	r.latches = r.latches[:0]
	r.flits = r.flits[:0]
	r.injArmedAt = [flit.NumVNs]uint64{}
	r.blockedOut = [topology.NumDirs]bool{}
	r.blockedCount = 0
	r.parked = 0
	r.dead = false
	r.deflections = 0
}

// SetPortBlocked marks (or clears) output d as fault-blocked: port
// assignment then treats the link as missing and deflects around it.
// Scenario link throttling toggles this at duty-window boundaries.
func (r *Router) SetPortBlocked(d topology.Dir, blocked bool) {
	if r.blockedOut[d] != blocked {
		r.blockedOut[d] = blocked
		if blocked {
			r.blockedCount++
		} else {
			r.blockedCount--
		}
	}
}

// SetPortDead marks output d permanently dead. Deflection routers carry
// neither credits nor control on their links, so dead and blocked
// coincide here.
func (r *Router) SetPortDead(d topology.Dir) { r.SetPortBlocked(d, true) }

// SetDead freezes the router entirely (scenario dead-router fault):
// Tick and FastForward become no-ops and Quiescent reports true, so
// latched flits stay parked — still visible to ForEachFlit, keeping the
// checker's conservation ledger balanced.
func (r *Router) SetDead() { r.dead = true }

// Deflections returns the number of misroutes issued by this router.
func (r *Router) Deflections() uint64 { return r.deflections }

// Tick implements one cycle: dispatch every latched flit (the defining
// deflection-router invariant), inject if a port remains, then latch this
// cycle's arrivals.
func (r *Router) Tick(now uint64) {
	if r.dead {
		return
	}
	if r.meter != nil {
		r.meter.StaticTick()
	}

	r.flits = r.flits[:0]
	for _, l := range r.latches {
		if l.arrivedAt >= now {
			panic(fmt.Sprintf("deflect %d: latch holds current-cycle flit", r.node))
		}
		r.flits = append(r.flits, l.f)
	}
	r.latches = r.latches[:0]
	carried := r.parked
	r.parked = 0

	assignments := r.defl.Assign(r.flits, r.usable, r.ejectWidth)
	var taken [topology.NumDirs]bool
	for i, a := range assignments {
		f := r.flits[i]
		if !a.OK {
			// Impossible on a healthy mesh (outputs >= latched inputs).
			// With fault-blocked links the transient after a fault can
			// leave more latched flits than surviving outputs — and the
			// backlog can outlive the block itself when a throttled link
			// reopens. Park the overflow for next cycle instead of
			// panicking — the graceful-degradation half of scenario
			// fault injection.
			if r.blockedCount > 0 || carried > 0 {
				r.latches = append(r.latches, latched{f: f, arrivedAt: now})
				r.parked++
				continue
			}
			panic(fmt.Sprintf("deflect %d: no output for flit %v", r.node, f))
		}
		if a.Dir == topology.Local {
			r.eject(now, f)
			continue
		}
		taken[a.Dir] = true
		if a.Deflected {
			f.Deflections++
			r.deflections++
		}
		r.send(now, a.Dir, f)
	}

	r.inject(now, &taken)
	r.receive(now)
}

// usable reports whether output d can carry a flit: the link must be
// wired and not fault-blocked.
func (r *Router) usable(_ *flit.Flit, d topology.Dir) bool {
	return r.wires.Ports[d].Exists() && !r.blockedOut[d]
}

func (r *Router) eject(now uint64, f *flit.Flit) {
	if r.meter != nil {
		r.meter.SwArb()
		r.meter.Xbar()
	}
	r.sink.Deliver(now, f)
}

func (r *Router) send(now uint64, d topology.Dir, f *flit.Flit) {
	f.Hops++
	r.wires.Ports[d].Out.Send(now, f)
	if r.meter != nil {
		r.meter.SwArb()
		r.meter.Xbar()
		r.meter.LinkHop()
	}
}

// inject admits at most one new flit if an output port remains free after
// the network flits — the only backpressure a backpressureless router
// exerts.

// armInjection advances vn's injection-stage register and reports whether
// its head flit may be injected this cycle.
func (r *Router) armInjection(now uint64, vn flit.VN) bool {
	if r.src.Peek(vn) == nil {
		r.injArmedAt[vn] = 0
		return false
	}
	if r.injArmedAt[vn] == 0 {
		r.injArmedAt[vn] = now + 1
	}
	return now >= r.injArmedAt[vn]
}
func (r *Router) inject(now uint64, taken *[topology.NumDirs]bool) {
	// Round-robin over virtual networks for fairness; each VN may inject
	// one flit per cycle, but every injection still needs a free output
	// port after the network flits (footnote 3 of the paper).
	start := r.injArb.Next()
	// Empty NI: every armInjection would peek nil, zero its register and
	// decline, so zeroing them all and returning is bit-for-bit identical.
	if r.src.QueuedFlits() == 0 {
		r.injArmedAt = [flit.NumVNs]uint64{}
		return
	}
	for i := 0; i < flit.NumVNs; i++ {
		vn := flit.VN((start + i) % flit.NumVNs)
		if !r.armInjection(now, vn) {
			continue
		}
		free := false
		for d := topology.Dir(0); d < topology.NumDirs; d++ {
			if r.usable(nil, d) && !taken[d] {
				free = true
				break
			}
		}
		if !free {
			return
		}
		f := r.src.Pop(vn)
		// The flit entered the injection register the cycle before it
		// became eligible; latency accounting starts there, like a
		// buffer write.
		entered := r.injArmedAt[vn] - 1
		r.injArmedAt[vn] = now + 1
		f.InjectedAt = entered

		one := []*flit.Flit{f}
		a := r.defl.Assign(one, func(ff *flit.Flit, d topology.Dir) bool {
			return r.usable(ff, d) && !taken[d]
		}, 0)[0]
		if !a.OK {
			panic(fmt.Sprintf("deflect %d: injection with no free port", r.node))
		}
		taken[a.Dir] = true
		if a.Deflected {
			f.Deflections++
			r.deflections++
		}
		r.send(now, a.Dir, f)
	}
}

// receive latches this cycle's arrivals for dispatch next cycle.
func (r *Router) receive(now uint64) {
	// inbox is the aggregate in-flight count toward this node: zero
	// means every Recv below would miss, so skip the scan outright.
	if r.inbox[0] == 0 {
		return
	}
	for _, d := range r.nbr {
		pl := &r.wires.Ports[d]
		if f, ok := pl.In.Recv(now); ok {
			r.latches = append(r.latches, latched{f: f, arrivedAt: now})
			if r.meter != nil {
				r.meter.Latch()
			}
		}
	}
}

// Quiescent implements the kernel's active-set contract (sim.Quiescer):
// ticking is a provable no-op when no flit is latched, in flight toward
// this router, or awaiting injection. Deflection routers use neither
// credits nor the control line, so data pipes are the only wake source.
// An idle tick draws no randomness (Assign returns early on an empty
// flit set) and mutates only the meter, the injection round-robin
// pointer, and the idle injection registers — all replayed exactly by
// FastForward. The sharded tick (internal/network/shard.go) depends on
// that Tick == FastForward(1) equivalence being exact: its skip
// decision cannot see same-cycle sends parked in staged boundary
// registers, which is only sound because skipping such a router
// changes nothing.
func (r *Router) Quiescent(now uint64) bool {
	if r.dead {
		return true
	}
	if len(r.latches) != 0 {
		return false
	}
	// One load of the data column (maintained by the inbound pipes'
	// tally hooks) replaces a per-direction InFlight scan; deflection
	// routers read no credit or control pipe.
	if r.inbox[0] != 0 {
		return false
	}
	return r.src.QueuedFlits() == 0
}

// FastForward applies k skipped idle cycles (sim.Quiescer). Each idle
// tick accrues static energy, rotates the injection arbiter by one (its
// Pick predicate is always true), and zeroes every idle VN's injection
// register via armInjection's empty-queue branch — the register is
// already zero after the first idle cycle, so zeroing now is exact.
func (r *Router) FastForward(k uint64) {
	if r.dead {
		return
	}
	if r.meter != nil {
		r.meter.StaticTicks(k)
	}
	r.injArb.Advance(k)
	r.injArmedAt = [flit.NumVNs]uint64{}
}

// LatchedFlits returns the number of flits currently held in pipeline
// latches (drain checks).
func (r *Router) LatchedFlits() int { return len(r.latches) }

// ForEachFlit calls fn for every flit currently latched in this router
// (invariant checker's conservation and age scans).
func (r *Router) ForEachFlit(fn func(*flit.Flit)) {
	for _, l := range r.latches {
		fn(l.f)
	}
}

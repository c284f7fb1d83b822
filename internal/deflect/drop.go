package deflect

import (
	"fmt"
	"math/rand"

	"afcnet/internal/energy"
	"afcnet/internal/flit"
	"afcnet/internal/router"
	"afcnet/internal/topology"
)

// Nacker carries drop notifications back to packet sources. The paper's
// drop-based designs (e.g. SCARAB) use a dedicated low-cost NACK network
// with guaranteed delivery; the network layer implements this interface by
// scheduling a source retransmission after the NACK's flight time.
type Nacker interface {
	Nack(now uint64, f *flit.Flit)
}

// DropRouter is the drop-based backpressureless variant: a contending
// flit that cannot take a productive output port is dropped and NACKed
// instead of deflected. Included as the paper's Section II comparison
// point (it saturates at lower loads than deflection, which the open-loop
// sweep bench reproduces).
type DropRouter struct {
	// --- hot tick-path core (Quiescent + FastForward; see Router) ---

	// dead freezes the router entirely (fault injection); see
	// Router.SetDead.
	dead    bool
	latches []latched
	// inbox replaces Quiescent's pipe scan with one aggregate load
	// (see Router.inbox).
	inbox *[3]int32
	meter *energy.Meter
	// src is the node's NI; Quiescent reads its O(1) queue total.
	src        router.LocalSource
	injArb     router.RoundRobin
	injArmedAt [flit.NumVNs]uint64

	// --- active-tick working set ---

	rng *rand.Rand
	// ashard, on sharded networks, is the shard-local arena magazine
	// dropped flits retire through (drop retirement is the one recycle
	// site outside the NI). Nil keeps the serial flit.Recycle path.
	ashard *flit.ArenaShard

	order []int
	// routes is node's routing state from the network's shared
	// topology.Tables.
	routes topology.Routes
	// nbr lists the directions with a wired inbound data pipe (see
	// Router.nbr).
	nbr []topology.Dir

	// blockedOut marks output ports whose data link is fault-blocked;
	// productiveFree treats them like missing links, so a flit whose
	// productive ports all died is dropped and NACKed — the drop kind's
	// natural fault response.
	blockedOut [topology.NumDirs]bool

	wires router.Wires
	sink  router.LocalSink
	nack  Nacker

	// --- cold config/stats tail ---

	node       topology.NodeID
	ejectWidth int

	// Stats
	droppedFlits uint64
}

// DropSlab is a contiguous bank of drop routers, carved in ascending
// node order (band-major for the sharded tick's row bands).
type DropSlab struct {
	routers []DropRouter
	next    int
}

// NewDropSlab returns a slab with room for count routers.
func NewDropSlab(count int) *DropSlab {
	return &DropSlab{routers: make([]DropRouter, count)}
}

// New carves the next router from the slab and initializes it at node;
// tables and inbox are as for Slab.New.
func (s *DropSlab) New(tables *topology.Tables, node topology.NodeID, ejectWidth int, rng *rand.Rand,
	wires router.Wires, inbox *[3]int32, src router.LocalSource, sink router.LocalSink,
	meter *energy.Meter, nack Nacker) *DropRouter {

	if s.next >= len(s.routers) {
		panic("deflect: drop-router slab exhausted")
	}
	r := &s.routers[s.next]
	r.node = node
	r.wires = wires
	r.inbox = inbox
	r.src = src
	r.sink = sink
	r.meter = meter
	r.nack = nack
	r.rng = rng
	r.ejectWidth = ejectWidth
	r.injArb.Init(flit.NumVNs)
	r.routes = tables.Routes(node)
	r.nbr = tables.Neighbors(node)
	s.next++
	return r
}

// Node implements router.Router.
func (r *DropRouter) Node() topology.NodeID { return r.node }

// SetArenaShard routes drop-retirement recycling through a shard-local
// arena magazine (see flit.ArenaShard). The network sets it when
// building a sharded tick; nil keeps the serial flit.Recycle path.
func (r *DropRouter) SetArenaShard(s *flit.ArenaShard) { r.ashard = s }

// Reset rewinds the router to its freshly constructed state, reseeding
// the drop-priority randomness with seed (the root of the stream number
// a fresh construction would have consumed). Part of the cross-cell
// network-reuse path.
func (r *DropRouter) Reset(seed int64) {
	r.rng.Seed(seed)
	r.injArb.Reset()
	r.latches = r.latches[:0]
	r.order = r.order[:0]
	r.injArmedAt = [flit.NumVNs]uint64{}
	r.blockedOut = [topology.NumDirs]bool{}
	r.dead = false
	r.droppedFlits = 0
}

// SetPortBlocked marks (or clears) output d as fault-blocked: flits
// whose remaining productive ports are all blocked get dropped and
// NACKed for retransmission.
func (r *DropRouter) SetPortBlocked(d topology.Dir, blocked bool) { r.blockedOut[d] = blocked }

// SetPortDead marks output d permanently dead (no credits or control
// exist on this kind, so dead and blocked coincide).
func (r *DropRouter) SetPortDead(d topology.Dir) { r.blockedOut[d] = true }

// SetDead freezes the router entirely (scenario dead-router fault); see
// Router.SetDead.
func (r *DropRouter) SetDead() { r.dead = true }

// DroppedFlits returns the number of flits dropped by this router.
func (r *DropRouter) DroppedFlits() uint64 { return r.droppedFlits }

// LatchedFlits returns the number of flits currently in pipeline latches.
func (r *DropRouter) LatchedFlits() int { return len(r.latches) }

// Quiescent implements the kernel's active-set contract (sim.Quiescer);
// see Router.Quiescent — the drop variant has the same wake sources
// (data pipes and the injection queue; retransmissions enqueue into the
// NI queue, so NACK wakeups arrive through the source check). An idle
// tick draws no randomness: rand.Shuffle over zero latched flits makes
// no swaps and no calls into the generator.
func (r *DropRouter) Quiescent(now uint64) bool {
	if r.dead {
		return true
	}
	if len(r.latches) != 0 {
		return false
	}
	if r.inbox[0] != 0 {
		return false
	}
	return r.src.QueuedFlits() == 0
}

// FastForward applies k skipped idle cycles (sim.Quiescer); see
// Router.FastForward — identical idle-tick side effects.
func (r *DropRouter) FastForward(k uint64) {
	if r.dead {
		return
	}
	if r.meter != nil {
		r.meter.StaticTicks(k)
	}
	r.injArb.Advance(k)
	r.injArmedAt = [flit.NumVNs]uint64{}
}

// ForEachFlit calls fn for every flit currently latched in this router
// (invariant checker's conservation and age scans).
func (r *DropRouter) ForEachFlit(fn func(*flit.Flit)) {
	for _, l := range r.latches {
		fn(l.f)
	}
}

// Tick implements one cycle: every latched flit either ejects, advances on
// a productive port, or is dropped with a NACK; then at most one flit is
// injected if a productive port remains.
func (r *DropRouter) Tick(now uint64) {
	if r.dead {
		return
	}
	if r.meter != nil {
		r.meter.StaticTick()
	}

	var taken [topology.NumDirs]bool
	ejectSlots := r.ejectWidth

	// Randomize priority among latched flits (drop fairness).
	r.order = r.order[:0]
	for i := range r.latches {
		r.order = append(r.order, i)
	}
	r.rng.Shuffle(len(r.order), func(a, b int) { r.order[a], r.order[b] = r.order[b], r.order[a] })

	for _, idx := range r.order {
		l := r.latches[idx]
		if l.arrivedAt >= now {
			panic(fmt.Sprintf("deflect(drop) %d: latch holds current-cycle flit", r.node))
		}
		f := l.f
		if f.Dst == r.node && ejectSlots > 0 {
			ejectSlots--
			if r.meter != nil {
				r.meter.SwArb()
				r.meter.Xbar()
			}
			r.sink.Deliver(now, f)
			continue
		}
		if d, ok := r.productiveFree(f, &taken); ok {
			taken[d] = true
			r.send(now, d, f)
			continue
		}
		r.droppedFlits++
		r.nack.Nack(now, f)
		// The NACK path retains only the packet description, never the
		// flit itself: the retransmission re-packetizes from scratch, so
		// the dropped flit is consumed here.
		if r.ashard != nil {
			r.ashard.Recycle(f)
		} else {
			flit.Recycle(f)
		}
	}
	r.latches = r.latches[:0]

	r.inject(now, &taken)
	r.receive(now)
}

func (r *DropRouter) productiveFree(f *flit.Flit, taken *[topology.NumDirs]bool) (topology.Dir, bool) {
	dst := f.Dst
	if dst == r.node {
		return 0, false // ejection port busy; dst flits cannot be misrouted here
	}
	// The DOR next hop first, then the other productive direction.
	ps := r.routes.Prod(dst)
	for _, d := range ps.D[:ps.N] {
		if !taken[d] && r.wires.Ports[d].Exists() && !r.blockedOut[d] {
			return d, true
		}
	}
	return 0, false
}

func (r *DropRouter) send(now uint64, d topology.Dir, f *flit.Flit) {
	f.Hops++
	r.wires.Ports[d].Out.Send(now, f)
	if r.meter != nil {
		r.meter.SwArb()
		r.meter.Xbar()
		r.meter.LinkHop()
	}
}

func (r *DropRouter) armInjection(now uint64, vn flit.VN) bool {
	if r.src.Peek(vn) == nil {
		r.injArmedAt[vn] = 0
		return false
	}
	if r.injArmedAt[vn] == 0 {
		r.injArmedAt[vn] = now + 1
	}
	return now >= r.injArmedAt[vn]
}

func (r *DropRouter) inject(now uint64, taken *[topology.NumDirs]bool) {
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
		f := r.src.Peek(vn)
		d, ok := r.productiveFree(f, taken)
		if !ok {
			continue
		}
		f = r.src.Pop(vn)
		entered := r.injArmedAt[vn] - 1
		r.injArmedAt[vn] = now + 1
		f.InjectedAt = entered
		taken[d] = true
		r.send(now, d, f)
	}
}

func (r *DropRouter) receive(now uint64) {
	// See Router.receive: zero aggregate in-flight means every Recv
	// below would miss.
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

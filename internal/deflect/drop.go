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
	// stage comes first: see Router.
	stage

	rng *rand.Rand
	// ashard, on sharded networks, is the shard-local arena magazine
	// dropped flits retire through (drop retirement is the one recycle
	// site outside the NI). Nil keeps the serial flit.Recycle path.
	ashard *flit.ArenaShard

	order []int
	// routes is node's routing state from the network's shared
	// topology.Tables.
	routes topology.Routes

	nack Nacker

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
	r.init(tables, node, ejectWidth, wires, inbox, src, sink, meter)
	r.nack = nack
	r.rng = rng
	r.routes = tables.Routes(node)
	s.next++
	return r
}

// SetArenaShard routes drop-retirement recycling through a shard-local
// arena magazine (see flit.ArenaShard). The network sets it when
// building a sharded tick; nil keeps the serial flit.Recycle path.
func (r *DropRouter) SetArenaShard(s *flit.ArenaShard) { r.ashard = s }

// Reset rewinds the router to its freshly constructed state, reseeding
// the drop-priority randomness with seed (the root of the stream number
// a fresh construction would have consumed). Part of the cross-cell
// network-reuse path.
func (r *DropRouter) Reset(seed int64) {
	r.reset()
	r.rng.Seed(seed)
	r.order = r.order[:0]
	r.droppedFlits = 0
}

// SetPortBlocked marks (or clears) output d as fault-blocked: flits
// whose remaining productive ports are all blocked get dropped and
// NACKed for retransmission.
func (r *DropRouter) SetPortBlocked(d topology.Dir, blocked bool) { r.blockedOut[d] = blocked }

// SetPortDead marks output d permanently dead (no credits or control
// exist on this kind, so dead and blocked coincide).
func (r *DropRouter) SetPortDead(d topology.Dir) { r.blockedOut[d] = true }

// DroppedFlits returns the number of flits dropped by this router.
func (r *DropRouter) DroppedFlits() uint64 { return r.droppedFlits }

// Tick implements one cycle: every latched flit either ejects, advances on
// a productive port, or is dropped with a NACK; then each virtual network
// may inject one flit that finds a productive port still free.
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
			r.eject(now, f)
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

func (r *DropRouter) inject(now uint64, taken *[topology.NumDirs]bool) {
	first, ok := r.inj.Start(r.src.QueuedFlits())
	if !ok {
		return
	}
	for i := 0; i < flit.NumVNs; i++ {
		vn := flit.VN((first + i) % flit.NumVNs)
		f := r.src.Peek(vn)
		if !r.inj.Armed(now, vn, f != nil) {
			continue
		}
		d, ok := r.productiveFree(f, taken)
		if !ok {
			continue
		}
		f = r.src.Pop(vn)
		r.inj.Enter(now, vn, f)
		taken[d] = true
		r.send(now, d, f)
	}
}

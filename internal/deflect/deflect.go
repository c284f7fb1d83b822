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
//
// Both routers embed one shell, stage: latches, the injection stage
// (router.Injection, shared with AFC), wiring, Quiescent, FastForward,
// receive, send and eject. Each keeps its own Tick, inject, Reset,
// port-fault methods and stats, as their orders differ: deflection
// dispatches in latch order and stops injecting at the first flit with no
// free port; drop dispatches in shuffled order and tries every VN.
package deflect

import (
	"fmt"
	"math/rand"

	"afcnet/internal/energy"
	"afcnet/internal/flit"
	"afcnet/internal/router"
	"afcnet/internal/topology"
)

// Router is a backpressureless deflection router for one node. The
// stage comes first (its hot fields lead the slab slot), then the
// active-tick working set, then stats. Routers are normally carved from
// a Slab in ascending node order — band-major for the sharded tick's row
// bands.
type Router struct {
	stage

	defl  router.Deflector
	flits []*flit.Flit // scratch, parallel prefix of latches

	// blockedCount counts the fault-blocked outputs in blockedOut.
	blockedCount int
	// parked counts overflow flits held back by the fault transient
	// (more latched flits than surviving outputs). While backlog is
	// draining the no-output condition stays legitimate even after a
	// throttled link reopens and blockedCount returns to zero.
	parked int

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
// tables is the network's shared route state (the router's nbr slice
// and its deflector's routes are views into it) and inbox the
// node's in-flight tally, which wires' inbound pipes feed
// (router.Wires.Tally). rng drives the randomized arbitration policy.
func (s *Slab) New(tables *topology.Tables, node topology.NodeID, policy router.DeflectPolicy,
	ejectWidth int, rng *rand.Rand, wires router.Wires, inbox *[3]int32, src router.LocalSource,
	sink router.LocalSink, meter *energy.Meter) *Router {

	if s.next >= len(s.routers) {
		panic("deflect: router slab exhausted")
	}
	r := &s.routers[s.next]
	r.init(tables, node, ejectWidth, wires, inbox, src, sink, meter)
	r.defl.Init(node, policy, rng, tables.Routes(node))
	s.next++
	return r
}

// Reset rewinds the router to its freshly constructed state (empty
// latches, arbiters at slot 0, stats zeroed), reseeding the arbitration
// randomness with seed — the root of the same stream number a fresh
// construction would have consumed. Part of the cross-cell
// network-reuse path.
func (r *Router) Reset(seed int64) {
	r.reset()
	r.defl.Reseed(seed)
	r.flits = r.flits[:0]
	r.blockedCount = 0
	r.parked = 0
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

// inject admits new flits while an output port remains free after the
// network flits — the only backpressure a backpressureless router
// exerts. It scans the virtual networks round-robin; each may inject
// one flit per cycle (footnote 3 of the paper), and the scan ends at the
// first armed flit that finds no free port.
func (r *Router) inject(now uint64, taken *[topology.NumDirs]bool) {
	first, ok := r.inj.Start(r.src.QueuedFlits())
	if !ok {
		return
	}
	for i := 0; i < flit.NumVNs; i++ {
		vn := flit.VN((first + i) % flit.NumVNs)
		if !r.inj.Armed(now, vn, r.src.Peek(vn) != nil) {
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
		r.inj.Enter(now, vn, f)

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

// Package vcrouter implements the baseline backpressured router of the
// paper: an input-queued virtual-channel router with credit-based flow
// control, dimension-ordered lookahead routing, per-packet VC allocation
// and separable (input-first) switch allocation.
//
// Pipeline (Table I): the paper charitably assumes a 2-stage router with
// 0-cycle VC allocation — stage 1 performs switch allocation (with
// lookahead routing in parallel and free VC allocation folded in), stage 2
// is switch traversal plus link traversal, with the buffer write absorbed
// into link traversal. The simulator models this as: a flit buffered at
// cycle t is eligible for switch allocation at t+1, and switch+link
// traversal deliver it to the next router's buffers L+1 cycles later
// (per-hop latency 2+L).
package vcrouter

import (
	"fmt"

	"afcnet/internal/config"
	"afcnet/internal/energy"
	"afcnet/internal/flit"
	"afcnet/internal/link"
	"afcnet/internal/router"
	"afcnet/internal/topology"
)

type entry struct {
	f       *flit.Flit
	readyAt uint64
}

// inVC is one input virtual channel: a flit FIFO plus the state of the
// packet currently occupying it. While pktOpen, route and ovc apply to
// every flit of the in-flight packet (wormhole: flits of a packet follow
// the head's VC and route).
type inVC struct {
	q       []entry
	pktOpen bool
	route   topology.Dir
	ovc     int
	// vcaDoneAt is the cycle the packet's VC allocation completes; under
	// the RealisticVCA option the head flit may not request the switch
	// before it (0 = no pending VCA stage).
	vcaDoneAt uint64
}

// outVC is one output virtual channel's downstream state: whether it is
// allocated to a packet (rule R1) and the credit count for its downstream
// buffer slots.
type outVC struct {
	busy    bool
	credits int
}

// candidate is an input port's switch-allocation request for this cycle.
type candidate struct {
	valid bool
	vc    int
	out   topology.Dir
	ovc   int
}

// Router is the baseline backpressured VC router for one node.
//
// The field order is a deliberate hot/cold split (see core.Router): the
// leading fields are what the quiescence probe and FastForward touch
// every cycle, the middle is the active-tick working set, the tail is
// cold configuration/fault/stats state. Routers are normally carved
// from a Slab in ascending node order — band-major for the sharded
// tick's row bands.
type Router struct {
	// --- hot tick-path core (Quiescent + FastForward) ---

	// dead freezes the whole router (fault injection): Tick and
	// FastForward become no-ops and Quiescent reports true; buffered
	// flits stay parked and countable.
	dead bool
	// held counts flits currently in the input buffers (maintained at the
	// enqueue/dequeue sites) so quiescence and drain checks are O(1).
	held int
	// inbox is this router's slot of the network's per-node aggregate
	// in-flight slab, split by pipe class (see router.Wires.Tally):
	// [0] data, [1] credit, [2] ctrl (always zero here — nothing sends
	// on the control line in a backpressured network). One cache line
	// replaces Quiescent's pipe scan, and each receive scan skips when
	// its own class is idle.
	inbox *[3]int32
	meter *energy.Meter
	// src is the node's NI; Quiescent reads its O(1) queue total.
	src router.LocalSource

	// --- active-tick working set ---

	// heldAt counts the buffered flits per input port, letting allocate
	// skip the VC scan on empty ports (a grantless Pick would not move
	// the arbiter).
	heldAt  [topology.NumPorts]int
	in      [topology.NumPorts][]inVC
	out     [topology.NumPorts][]outVC // Local entries unused (infinite)
	inArb   [topology.NumPorts]router.RoundRobin
	outArb  [topology.NumPorts]router.RoundRobin
	vcaArb  [topology.NumPorts][flit.NumVNs]router.RoundRobin
	injVC   [flit.NumVNs]int
	injOpen [flit.NumVNs]bool

	cands [topology.NumPorts]candidate

	// nbr lists the directions with a wired neighbor, so the per-cycle
	// receive loops skip the empty ports of edge and corner routers.
	// A view into the network's shared topology.Tables.
	nbr []topology.Dir

	// routes is node's routing state from the network's shared
	// topology.Tables; lookahead routing reads its DOR hop.
	routes topology.Routes

	// blockedOut marks output ports whose data link is fault-blocked
	// (dead, or throttled closed this duty window): eligibility treats
	// the port as creditless, so affected packets wait in place — the
	// buffered kinds' graceful degradation under faults.
	blockedOut [topology.NumDirs]bool
	// deadOut additionally suppresses the upstream credit return on a
	// permanently dead wire (the invariant checker excludes such edges).
	deadOut [topology.NumDirs]bool

	wires router.Wires
	sink  router.LocalSink

	// --- cold config tail ---

	node         topology.NodeID
	depth        int
	ejectWidth   int
	realisticVCA bool
	vnVCs        [flit.NumVNs][]int // virtual network -> VC indices
}

// Slab is a contiguous bank of baseline routers: the Router structs,
// their input/output VC arrays and the VC FIFO backing all live in
// shared slabs, carved in ascending node order (band-major for the
// sharded tick's row bands).
type Slab struct {
	routers []Router
	ins     []inVC
	outs    []outVC
	entries []entry
	// vnVCs is the VN -> VC-index mapping, identical for every router
	// of one configuration, built once and aliased (read-only).
	vnVCs  [flit.NumVNs][]int
	numVCs int
	depth  int
	next   int
}

// NewSlab returns a slab with room for count routers; cfg fixes the VC
// geometry and buffer depth (and must match the subsequent New calls).
func NewSlab(count int, cfg config.Baseline) *Slab {
	s := &Slab{depth: cfg.BufDepth}
	for vn := flit.VN(0); vn < flit.NumVNs; vn++ {
		for i := 0; i < cfg.VCsPerVN[vn]; i++ {
			s.vnVCs[vn] = append(s.vnVCs[vn], s.numVCs)
			s.numVCs++
		}
	}
	s.routers = make([]Router, count)
	s.ins = make([]inVC, count*topology.NumPorts*s.numVCs)
	s.outs = make([]outVC, count*topology.NumPorts*s.numVCs)
	s.entries = make([]entry, count*topology.NumPorts*s.numVCs*s.depth)
	return s
}

// New carves the next router from the slab and initializes it at node,
// wired to its neighbors and its network interface. tables is the
// network's shared route state (the router's routes and nbr slice are
// views into it) and inbox the node's in-flight tally, which wires'
// inbound pipes feed (router.Wires.Tally). The meter may be nil (no
// energy accounting).
func (s *Slab) New(tables *topology.Tables, node topology.NodeID, cfg config.Baseline,
	ejectWidth int, wires router.Wires, inbox *[3]int32, src router.LocalSource,
	sink router.LocalSink, meter *energy.Meter) *Router {

	if s.next >= len(s.routers) {
		panic("vcrouter: router slab exhausted")
	}
	r := &s.routers[s.next]
	r.node = node
	r.wires = wires
	r.inbox = inbox
	r.src = src
	r.sink = sink
	r.meter = meter
	r.depth = cfg.BufDepth
	r.ejectWidth = ejectWidth
	r.realisticVCA = cfg.RealisticVCA
	r.vnVCs = s.vnVCs
	base := s.next * topology.NumPorts
	for p := 0; p < topology.NumPorts; p++ {
		lo := (base + p) * s.numVCs
		r.in[p] = s.ins[lo : lo+s.numVCs : lo+s.numVCs]
		r.out[p] = s.outs[lo : lo+s.numVCs : lo+s.numVCs]
		for v := range r.in[p] {
			// Each VC's FIFO gets a full-depth carve: appends stay within
			// capacity, so the steady state allocates nothing.
			elo := (lo + v) * s.depth
			r.in[p][v].q = s.entries[elo : elo : elo+s.depth]
		}
		for v := range r.out[p] {
			r.out[p][v].credits = cfg.BufDepth
		}
		r.inArb[p].Init(s.numVCs)
		r.outArb[p].Init(topology.NumPorts)
		for vn := flit.VN(0); vn < flit.NumVNs; vn++ {
			r.vcaArb[p][vn].Init(len(r.vnVCs[vn]))
		}
	}
	for vn := range r.injVC {
		r.injVC[vn] = flit.NoVC
	}
	r.nbr = tables.Neighbors(node)
	r.routes = tables.Routes(node)
	s.next++
	return r
}

// Node implements router.Router.
func (r *Router) Node() topology.NodeID { return r.node }

// Reset rewinds the router to its freshly constructed state, keeping
// every buffer's backing array: VC queues empty, packet state closed,
// full credits, arbiters at slot 0, stats zeroed. Part of the cross-cell
// network-reuse path; this router draws no randomness, so no reseeding
// is involved.
func (r *Router) Reset() {
	for p := 0; p < topology.NumPorts; p++ {
		for v := range r.in[p] {
			vc := &r.in[p][v]
			vc.q = vc.q[:0]
			vc.pktOpen = false
			vc.route = 0
			vc.ovc = 0
			vc.vcaDoneAt = 0
		}
		for v := range r.out[p] {
			r.out[p][v] = outVC{credits: r.depth}
		}
		r.inArb[p].Reset()
		r.outArb[p].Reset()
		for vn := flit.VN(0); vn < flit.NumVNs; vn++ {
			r.vcaArb[p][vn].Reset()
		}
		r.cands[p] = candidate{}
		r.heldAt[p] = 0
	}
	for vn := range r.injVC {
		r.injVC[vn] = flit.NoVC
		r.injOpen[vn] = false
	}
	r.held = 0
	r.blockedOut = [topology.NumDirs]bool{}
	r.deadOut = [topology.NumDirs]bool{}
	r.dead = false
}

// SetPortBlocked marks (or clears) output d as fault-blocked for data:
// packets routed toward it wait in their buffers until it reopens (or
// forever, for a dead link). Scenario link throttling toggles this at
// duty-window boundaries.
func (r *Router) SetPortBlocked(d topology.Dir, blocked bool) { r.blockedOut[d] = blocked }

// SetPortDead marks output d permanently dead: data is blocked and the
// upstream credit return on the same wire stops.
func (r *Router) SetPortDead(d topology.Dir) {
	r.blockedOut[d] = true
	r.deadOut[d] = true
}

// SetDead freezes the router entirely (scenario dead-router fault): Tick
// and FastForward become no-ops and Quiescent reports true, so buffered
// flits stay parked — still visible to ForEachFlit, keeping the
// checker's conservation ledger balanced.
func (r *Router) SetDead() { r.dead = true }

// Tick implements one cycle (see the package comment for the pipeline
// correspondence).
func (r *Router) Tick(now uint64) {
	if r.dead {
		return
	}
	if r.meter != nil {
		r.meter.StaticTick()
	}
	r.receiveCredits(now)
	// With no buffered flit there is no switch candidate: eligible() is
	// false for every VC, so allocate/transmit could only run grantless
	// arbitration picks, which leave the round-robin pointers untouched.
	// Skipping both stages is therefore bit-for-bit identical and removes
	// the dominant cost of near-idle cycles (arrivals still in flight on
	// the pipes keep the router from full quiescence).
	if r.held != 0 {
		r.allocate(now)
		r.transmit(now)
	}
	r.inject(now)
	r.receive(now)
}

// receiveCredits consumes credit backflow from downstream routers.
func (r *Router) receiveCredits(now uint64) {
	// inbox[1] counts credits in flight toward this node: zero means
	// every Recv below would miss, so the scan is skipped outright.
	if r.inbox[1] == 0 {
		return
	}
	for _, d := range r.nbr {
		pl := &r.wires.Ports[d]
		if pl.CreditIn == nil {
			continue
		}
		if c, ok := pl.CreditIn.Recv(now); ok {
			ov := &r.out[d][c.VC]
			ov.credits++
			if ov.credits > r.depth {
				panic(fmt.Sprintf("vcrouter %d: credit overflow on %s vc %d", r.node, d, c.VC))
			}
		}
	}
}

// allocate runs lookahead routing, 0-cycle VC allocation and the
// input-first stage of separable switch allocation, filling r.cands.
func (r *Router) allocate(now uint64) {
	for p := 0; p < topology.NumPorts; p++ {
		r.cands[p] = candidate{}
		if r.heldAt[p] == 0 {
			// Every VC queue at this port is empty, so eligible() is false
			// for all of them and the Pick would be grantless: skipping it
			// is exact.
			continue
		}
		vcs := r.in[p]
		pick := r.inArb[p].Pick(func(v int) bool {
			return r.eligible(now, topology.Dir(p), v)
		})
		if pick < 0 {
			continue
		}
		vc := &vcs[pick]
		r.cands[p] = candidate{valid: true, vc: pick, out: vc.route, ovc: vc.ovc}
	}
}

// eligible reports whether input VC v at port p can request the switch
// this cycle, performing route computation and VC allocation for head
// flits as a side effect (the paper's 0-cycle VCA).
func (r *Router) eligible(now uint64, p topology.Dir, v int) bool {
	vc := &r.in[p][v]
	if len(vc.q) == 0 || vc.q[0].readyAt > now {
		return false
	}
	f := vc.q[0].f
	if f.Head() {
		if vc.pktOpen {
			// Route and VC were allocated on an earlier attempt; the flit
			// is waiting on VCA completion, credits or switch allocation.
			if now < vc.vcaDoneAt {
				return false
			}
			if vc.route == topology.Local {
				return true
			}
			return !r.blockedOut[vc.route] && r.out[vc.route][vc.ovc].credits > 0
		}
		route := r.routes.DOR(f.Dst)
		if route == topology.Local {
			vc.route = route
			vc.ovc = flit.NoVC
			vc.pktOpen = f.Len > 1
			return true
		}
		if r.blockedOut[route] {
			// Fault-blocked output: the packet waits in place before even
			// allocating an output VC (graceful degradation — the flits
			// remain buffered and countable).
			return false
		}
		ovc := r.allocVC(route, f.VN)
		if ovc == flit.NoVC {
			return false
		}
		vc.route = route
		vc.ovc = ovc
		// Hold the output VC until the tail departs — for single-flit
		// packets too: the VC must read busy while allocated-but-unsent,
		// or a concurrent allocation could hand the same VC to another
		// packet (rule R2) and interleave flits downstream.
		vc.pktOpen = true
		r.out[route][ovc].busy = true
		if r.meter != nil {
			r.meter.VCArb()
		}
		if r.realisticVCA {
			// Non-speculative VCA occupies this cycle; the switch request
			// happens next cycle (3-stage pipeline).
			vc.vcaDoneAt = now + 1
			return false
		}
		return r.out[route][ovc].credits > 0
	}
	// Body/tail flit: the packet must already hold a route and VC.
	if !vc.pktOpen {
		panic(fmt.Sprintf("vcrouter %d: body flit %v without open packet at %s/%d", r.node, f, p, v))
	}
	if vc.route == topology.Local {
		return true
	}
	return !r.blockedOut[vc.route] && r.out[vc.route][vc.ovc].credits > 0
}

// allocVC picks a free output VC on port out within vn (round-robin), or
// NoVC. Rule R2 is preserved because the VC is marked busy as soon as a
// multi-flit packet claims it.
func (r *Router) allocVC(out topology.Dir, vn flit.VN) int {
	ids := r.vnVCs[vn]
	i := r.vcaArb[out][vn].Pick(func(i int) bool {
		return !r.out[out][ids[i]].busy
	})
	if i < 0 {
		return flit.NoVC
	}
	return ids[i]
}

// transmit runs the output stage of switch allocation and moves winners
// through the crossbar onto links (or ejects them). The ejection (local
// output) port is EjectWidth flits wide: short NI-side wiring makes a
// wider ejection path cheap, and receive-side buffering always accepts.
func (r *Router) transmit(now uint64) {
	// Output ports that no candidate requests can only run grantless picks,
	// which leave the round-robin pointers untouched; skip them.
	var wantOut [topology.NumPorts]bool
	for p := 0; p < topology.NumPorts; p++ {
		if c := r.cands[p]; c.valid {
			wantOut[c.out] = true
		}
	}
	for o := 0; o < topology.NumPorts; o++ {
		out := topology.Dir(o)
		if !wantOut[out] {
			continue
		}
		grants := 1
		if out == topology.Local {
			grants = r.ejectWidth
		}
		for g := 0; g < grants; g++ {
			win := r.outArb[o].Pick(func(p int) bool {
				c := r.cands[p]
				return c.valid && c.out == out
			})
			if win < 0 {
				break
			}
			r.sendWinner(now, topology.Dir(win), out)
		}
	}
}

func (r *Router) sendWinner(now uint64, in, out topology.Dir) {
	c := &r.cands[in]
	vc := &r.in[in][c.vc]
	f := vc.q[0].f
	copy(vc.q, vc.q[1:])
	vc.q = vc.q[:len(vc.q)-1]
	r.held--
	r.heldAt[in]--
	c.valid = false
	if r.meter != nil {
		r.meter.BufRead()
		r.meter.SwArb()
		r.meter.Xbar()
	}

	// Return a credit upstream for the freed buffer slot (unless the
	// wire died: a dead link carries no credits either).
	if in != topology.Local && !r.deadOut[in] {
		if pl := r.wires.Ports[in]; pl.CreditOut != nil {
			pl.CreditOut.Send(now, link.Credit{VC: c.vc, VN: f.VN})
			if r.meter != nil {
				r.meter.Credit()
			}
		}
	}

	if f.Tail() {
		if vc.pktOpen {
			vc.pktOpen = false
			if vc.route != topology.Local {
				r.out[vc.route][vc.ovc].busy = false
			}
		}
		vc.ovc = flit.NoVC
	}

	if out == topology.Local {
		r.sink.Deliver(now, f)
		return
	}

	ov := &r.out[out][c.ovc]
	ov.credits--
	if ov.credits < 0 {
		panic(fmt.Sprintf("vcrouter %d: negative credits on %s vc %d", r.node, out, c.ovc))
	}
	f.VC = c.ovc
	f.Hops++
	r.wires.Ports[out].Out.Send(now, f)
	if r.meter != nil {
		r.meter.LinkHop()
	}
}

// inject pulls up to one flit per virtual network per cycle from the
// network interface into the local input port — the Garnet-style NI model
// where each virtual network has its own injection path.
func (r *Router) inject(now uint64) {
	// Empty NI: every peek below would return nil.
	if r.src.QueuedFlits() == 0 {
		return
	}
	for vn := flit.VN(0); vn < flit.NumVNs; vn++ {
		f := r.src.Peek(vn)
		if f == nil {
			continue
		}
		v := r.injectionVC(vn, f)
		if v == flit.NoVC {
			continue
		}
		f = r.src.Pop(vn)
		vc := &r.in[topology.Local][v]
		if len(vc.q) >= r.depth {
			panic(fmt.Sprintf("vcrouter %d: injection overflow on local vc %d", r.node, v))
		}
		if f.Head() {
			r.injVC[vn] = v
			r.injOpen[vn] = true
		}
		if f.Tail() {
			r.injOpen[vn] = false
		}
		f.VC = v
		f.InjectedAt = now
		vc.q = append(vc.q, entry{f: f, readyAt: now + 1})
		r.held++
		r.heldAt[topology.Local]++
		if r.meter != nil {
			r.meter.BufWrite()
		}
	}
}

// injectionVC returns the local input VC the next flit of vn should enter,
// or NoVC if none is available. Heads claim an idle VC; bodies continue in
// the packet's VC if it has space.
func (r *Router) injectionVC(vn flit.VN, f *flit.Flit) int {
	if !f.Head() {
		v := r.injVC[vn]
		if v == flit.NoVC || len(r.in[topology.Local][v].q) >= r.depth {
			return flit.NoVC
		}
		return v
	}
	if r.injOpen[vn] {
		// Previous packet on this VN still mid-injection; its flits come
		// first in FIFO order so a head here means a logic error.
		panic(fmt.Sprintf("vcrouter %d: head flit while injection open on vn %s", r.node, vn))
	}
	for _, v := range r.vnVCs[vn] {
		vc := &r.in[topology.Local][v]
		if len(vc.q) == 0 && !vc.pktOpen {
			return v
		}
	}
	return flit.NoVC
}

// receive buffers this cycle's link arrivals. Credits guarantee space; an
// overflow is an invariant violation.
func (r *Router) receive(now uint64) {
	if r.inbox[0] == 0 {
		return // see receiveCredits: no flits in flight toward this node
	}
	for _, d := range r.nbr {
		pl := &r.wires.Ports[d]
		if pl.In == nil {
			continue
		}
		f, ok := pl.In.Recv(now)
		if !ok {
			continue
		}
		vc := &r.in[d][f.VC]
		if len(vc.q) >= r.depth {
			panic(fmt.Sprintf("vcrouter %d: buffer overflow on %s vc %d (flit %v)", r.node, d, f.VC, f))
		}
		vc.q = append(vc.q, entry{f: f, readyAt: now + 1})
		r.held++
		r.heldAt[d]++
		if r.meter != nil {
			r.meter.BufWrite()
		}
	}
}

// Quiescent implements the kernel's active-set contract (sim.Quiescer):
// ticking is a provable no-op when the router buffers no flits, no flit
// or credit is in flight toward it, and its NI offers nothing to
// inject. An idle tick's only side effect is the static-energy accrual
// FastForward reproduces — arbitration picks without an eligible
// candidate do not advance any round-robin pointer. (The control line
// is not part of the check because this router never reads it.) The
// sharded tick (internal/network/shard.go) depends on this
// Tick == FastForward(1) equivalence being exact: its skip decision
// cannot see same-cycle sends parked in staged boundary registers,
// which is only sound because skipping such a router changes nothing.
func (r *Router) Quiescent(now uint64) bool {
	if r.dead {
		return true
	}
	if r.held != 0 {
		return false
	}
	// The inbox tallies mirror the summed InFlight of every inbound
	// pipe (the ctrl column included, but nothing sends on the control
	// line in a backpressured network), so one cache line of loads
	// decides exactly what a pipe scan would.
	if r.inbox[0]|r.inbox[1]|r.inbox[2] != 0 {
		return false
	}
	return r.src.QueuedFlits() == 0
}

// FastForward applies k skipped idle cycles (sim.Quiescer): an idle tick
// mutates nothing but the static-energy meter.
func (r *Router) FastForward(k uint64) {
	if r.dead {
		return
	}
	if r.meter != nil {
		r.meter.StaticTicks(k)
	}
}

// BufferedFlits returns the number of flits currently held in this
// router's input buffers (drain checks and credit-conservation tests).
func (r *Router) BufferedFlits() int { return r.held }

// Credits returns the current credit count for output port d, VC v
// (exposed for invariant tests).
func (r *Router) Credits(d topology.Dir, v int) int { return r.out[d][v].credits }

// Occupancy returns the number of flits queued at input port p, VC v —
// the downstream side of the credit ledger the invariant checker
// reconciles against the upstream Credits count.
func (r *Router) Occupancy(p topology.Dir, v int) int { return len(r.in[p][v].q) }

// ForEachFlit calls fn for every flit currently held in this router
// (invariant checker's conservation and age scans).
func (r *Router) ForEachFlit(fn func(*flit.Flit)) {
	for p := range r.in {
		for v := range r.in[p] {
			for _, e := range r.in[p][v].q {
				fn(e.f)
			}
		}
	}
}

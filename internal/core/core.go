// Package core implements the paper's primary contribution: the Adaptive
// Flow Control (AFC) router, which dynamically switches between
// backpressureless (deflection) and backpressured (credit-based) modes of
// operation per router, using the paper's three mechanisms:
//
//   - Local contention thresholds (Section III-B/C): each router smooths
//     its local traffic intensity (4-cycle window + EWMA, weight 0.99) and
//     compares it against position-scaled high/low thresholds with
//     hysteresis. Above the high threshold a backpressureless router
//     forward-switches to backpressured mode over 2L cycles; below the low
//     threshold — and only once its buffers are empty — a backpressured
//     router reverse-switches back.
//
//   - Gossip-induced mode-switch (Section III-D): a backpressureless
//     router tracks credits of backpressured neighbors; if a downstream
//     virtual network's free buffers fall below the watermark X (>= 2L) it
//     force-switches to backpressured mode, expanding the backpressured
//     region before the neighbor's buffers can be overrun.
//
//   - Lazy VC allocation (Section III-E): in backpressured mode AFC routes
//     flit-by-flit, so the input buffer is organized as K single-flit VCs,
//     credits are tracked per virtual network, the upstream router sends
//     flits with no VC assignment, and the downstream buffer write picks
//     any free slot. This removes the VCA pipeline stage and halves total
//     buffering versus the baseline (32 vs. 64 flits/port).
//
// Mode-switch protocol and credit exactness. A forward switch beginning at
// cycle T sends a start-credits notification that reaches each neighbor at
// T+L; flits those neighbors send from T+L onward arrive from T+2L+1
// onward and are buffered, while earlier flits arrive by T+2L and are
// still deflected — so neighbors' credit decrements account for exactly
// the flits that will occupy buffer slots. A reverse switch (buffers
// empty) takes effect immediately; the stale decrements neighbors make
// before the stop-credits notification lands are harmless, exactly as the
// paper argues.
//
// Escape latches. The paper's watermark argument makes buffer exhaustion
// unreachable in the common case, but a flit in backpressureless mode can
// transiently find every usable output either taken or credit-masked
// during the 2L switch window. AFC hardware must do something with such a
// flit; this implementation gives each input port a small escape-latch
// FIFO (capacity 2L+1, outside the credited SRAM so upstream credit
// accounting stays exact). An escape event immediately triggers a forward
// switch and the escape latches drain with priority in backpressured
// mode. The experiments report escape events; they are zero in all
// closed-loop runs.
package core

import (
	"fmt"
	"math/bits"
	"math/rand"

	"afcnet/internal/config"
	"afcnet/internal/energy"
	"afcnet/internal/flit"
	"afcnet/internal/link"
	"afcnet/internal/router"
	"afcnet/internal/stats"
	"afcnet/internal/topology"
)

// Mode is the operating mode of an AFC router.
type Mode uint8

// AFC router modes. Switching is the 2L-cycle forward transition window
// during which the router still operates backpressurelessly but neighbors
// are being told to start credit tracking.
const (
	ModeBless Mode = iota
	ModeSwitching
	ModeBuffered

	numModes = 3
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case ModeBless:
		return "backpressureless"
	case ModeSwitching:
		return "switching"
	case ModeBuffered:
		return "backpressured"
	}
	return fmt.Sprintf("Mode(%d)", uint8(m))
}

// downstream is the locally tracked state of the neighbor on one output
// port: whether it is in backpressured mode (and hence credits matter) and
// the per-virtual-network free-slot counts.
type downstream struct {
	tracking bool
	credits  [flit.NumVNs]int
}

type latched struct {
	f         *flit.Flit
	port      topology.Dir
	arrivedAt uint64
}

// Router is one AFC router.
//
// The field order is a deliberate hot/cold split. The leading "hot
// tick-path core" holds exactly what the per-cycle quiescence probe and
// FastForward touch, so an idle router — the dominant case in the
// kilonode regime — costs the first few cache lines of its slab slot
// and nothing else. The middle section is the active-tick working set,
// and the tail is cold configuration, fault and stats state read only
// inside ticks that do real work. Routers are normally carved from a
// Slab in ascending node order (band-major for the sharded tick's row
// bands), so sweeps over the bank stream through one contiguous array
// instead of chasing a heap object per node.
type Router struct {
	// --- hot tick-path core (Quiescent + FastForward) ---

	// dead freezes the whole router (fault injection): Tick and
	// FastForward become no-ops and Quiescent reports true, so held
	// flits stay parked — and countable — forever.
	dead bool
	// alwaysBuffered pins the router in backpressured mode ("AFC
	// always-backpressured" in Section V), isolating the lazy-VCA
	// mechanism from the adaptivity mechanisms.
	alwaysBuffered bool
	// misrouteTripped records that a flit crossed the misroute threshold
	// this cycle (rejected-policy ablation only).
	misrouteTripped bool
	mode            Mode
	// held counts flits currently in SRAM slots and escape latches
	// (maintained at the enqueue/dequeue sites) so quiescence, drain and
	// reverse-switch buffer-empty checks are O(1).
	held int
	// gossipLow counts the (tracked direction, virtual network) pairs
	// whose mirrored credit count sits below the gossip watermark,
	// maintained at every credit/tracking mutation. It makes
	// gossipTriggered — called from Quiescent every cycle since the
	// sharded tick landed — a register compare instead of a per-VN scan
	// over the down array (the BENCH_4 low-load regression).
	gossipLow int
	// misrouteThreshold selects the rejected cumulative-misroute switch
	// policy when positive (see Options.MisrouteThreshold).
	misrouteThreshold int
	// inbox is this router's slot of the network's per-node aggregate
	// in-flight slab, split by pipe class (see router.Wires.Tally):
	// [0] data, [1] credit, [2] ctrl. One cache line replaces
	// Quiescent's twelve-pipe pointer chase, and each receive scan
	// skips outright when its own class shows nothing in flight.
	inbox   *[3]int32
	monitor stats.IntensityMonitor
	latches []latched
	meter   *energy.Meter
	// src is the node's NI; Quiescent reads its O(1) queue total.
	src        router.LocalSource
	injArb     router.RoundRobin
	injArmedAt [flit.NumVNs]uint64
	modeCycles [numModes]uint64

	// --- active-tick working set ---

	bufferedFrom uint64 // first cycle arrivals are buffered (forward switch)

	// occ mirrors SRAM slot occupancy per input port as a bitmask (bit s
	// set = slot s holds a flit), and route[p][o] is the part of occ[p]
	// whose flits leave on DOR output o. vnMask covers each virtual
	// network's contiguous slot range. Free-slot discovery is then a
	// trailing-zero scan, and the buffered-cycle input stage finds every
	// eligible slot of a port with five ANDs (see bufferedCycle) without
	// loading a flit. All three are maintained at the slot write sites
	// (receive, bufferedInject) and the slot read site (sendBuffered);
	// the word width is config.MaxAFCSlotsPerPort.
	occ    [topology.NumPorts]uint64
	route  [topology.NumPorts][topology.NumPorts]uint64
	vnMask [flit.NumVNs]uint64

	// in holds each input port's SRAM slots (nil = free) and esc its
	// escape-latch FIFO.
	in         [topology.NumPorts][]*flit.Flit
	esc        [topology.NumPorts][]*flit.Flit
	down       [topology.NumDirs]downstream
	dispatched int // flits dispatched this cycle (intensity metric)

	cands  [topology.NumPorts]cand
	inArb  [topology.NumPorts]router.RoundRobin
	outArb [topology.NumPorts]router.RoundRobin

	// blockedOut marks output ports whose data link is fault-blocked
	// (dead, or throttled closed this duty window): usableOut treats
	// them like missing links, so routing steers around the fault.
	blockedOut [topology.NumDirs]bool
	// deadOut marks output ports whose link is permanently dead; unlike
	// a throttle it also suppresses credit and control sends (a dead
	// wire carries nothing — the invariant checker excludes such edges).
	deadOut [topology.NumDirs]bool

	// routes is node's routing state from the network's shared
	// topology.Tables; the buffered datapath reads its DOR hop.
	routes topology.Routes
	// nbr lists the directions with a wired neighbor (data, credit and
	// control pipes all exist exactly there), so the per-cycle receive
	// loops skip the empty ports of edge and corner routers. Shared
	// storage, like routes.
	nbr   []topology.Dir
	wires router.Wires
	sink  router.LocalSink
	defl  router.Deflector
	// scratch for bless dispatch
	dflits []*flit.Flit
	dports []topology.Dir

	// --- cold config/fault/stats tail ---

	node       topology.NodeID
	cfg        config.AFC
	linkLat    int
	ejectWidth int
	th         config.Thresholds
	escCap     int
	totalSlots int

	// Stats
	deflections     uint64
	forwardSwitches uint64
	reverseSwitches uint64
	gossipSwitches  uint64
	escapeEvents    uint64
}

// cand is one input port's switch candidate: its escape-latch head or
// an SRAM slot.
type cand struct {
	escape bool
	slot   int
}

// Options configures non-paper-parameter aspects of the router.
type Options struct {
	// AlwaysBuffered pins the router in backpressured mode.
	AlwaysBuffered bool
	// Policy selects the deflection arbitration policy (default
	// PolicyRandom, the paper's choice).
	Policy router.DeflectPolicy
	// MisrouteThreshold > 0 replaces the local contention thresholds with
	// the design alternative the paper REJECTS (Section III-B): forward-
	// switch when a passing flit has accumulated that many misroutes.
	// The paper's objection — contention is then detected in the wrong
	// network region, because a deflected flit trips the threshold only
	// after it has left the hot region — is demonstrated by ablation A7.
	MisrouteThreshold int
}

// Slab is a contiguous bank of AFC routers: the Router structs occupy
// one backing array, and every router's SRAM slot arrays and escape
// FIFOs are carved from two shared slabs in carve order. The network
// carves in ascending node order — band-major for the sharded tick's
// contiguous row bands — so each shard's phase-A sweep walks a private,
// contiguous working set.
type Slab struct {
	routers []Router
	slots   []*flit.Flit
	escs    []*flit.Flit
	// vnMask is the VN -> slot-range mapping, identical for every router
	// of one configuration: each virtual network owns a contiguous
	// ascending run of slots, in VN order.
	vnMask     [flit.NumVNs]uint64
	totalSlots int
	escCap     int
	next       int
}

// NewSlab returns a slab with room for count routers; cfg fixes the
// SRAM geometry and linkLatency the escape-latch capacity (both must
// match the subsequent New calls). It panics when cfg has more than 64
// slots per port, which config.System.Validate rejects.
func NewSlab(count int, cfg config.AFC, linkLatency int) *Slab {
	s := &Slab{escCap: 2*linkLatency + 1, totalSlots: cfg.BufferSlotsPerPort()}
	if s.totalSlots > config.MaxAFCSlotsPerPort {
		panic(fmt.Sprintf("core: %d slots per port, the allocator's masks hold %d",
			s.totalSlots, config.MaxAFCSlotsPerPort))
	}
	lo := 0
	for vn := flit.VN(0); vn < flit.NumVNs; vn++ {
		n := cfg.VCsPerVN[vn]
		s.vnMask[vn] = (1<<uint(n) - 1) << uint(lo)
		lo += n
	}
	s.routers = make([]Router, count)
	s.slots = make([]*flit.Flit, count*topology.NumPorts*s.totalSlots)
	s.escs = make([]*flit.Flit, count*topology.NumPorts*s.escCap)
	return s
}

// New carves the next router from the slab and initializes it at node.
// It panics when the slab is exhausted. tables is the network's shared
// route state; the router's and its deflector's routes and the nbr
// slice are views into it. inbox is the node's in-flight tally,
// which wires' inbound pipes feed (router.Wires.Tally). rng drives
// deflection arbitration.
func (s *Slab) New(tables *topology.Tables, node topology.NodeID, cfg config.AFC, linkLatency, ejectWidth int,
	rng *rand.Rand, wires router.Wires, inbox *[3]int32, src router.LocalSource, sink router.LocalSink,
	meter *energy.Meter, opts Options) *Router {

	if s.next >= len(s.routers) {
		panic("core: router slab exhausted")
	}
	r := &s.routers[s.next]
	r.node = node
	r.wires = wires
	r.inbox = inbox
	r.src = src
	r.sink = sink
	r.meter = meter
	r.cfg = cfg
	r.linkLat = linkLatency
	r.ejectWidth = ejectWidth
	r.th = cfg.ThresholdsByPosition[tables.Mesh().Position(node)]
	r.alwaysBuffered = opts.AlwaysBuffered
	r.misrouteThreshold = opts.MisrouteThreshold
	r.monitor.Init(cfg.EWMAWeight)
	r.escCap = s.escCap
	r.vnMask = s.vnMask
	r.totalSlots = s.totalSlots

	r.routes = tables.Routes(node)
	r.defl.Init(node, opts.Policy, rng, r.routes)
	r.nbr = tables.Neighbors(node)

	base := s.next * topology.NumPorts
	for p := 0; p < topology.NumPorts; p++ {
		lo := (base + p) * s.totalSlots
		r.in[p] = s.slots[lo : lo+s.totalSlots : lo+s.totalSlots]
		elo := (base + p) * s.escCap
		r.esc[p] = s.escs[elo : elo : elo+s.escCap]
		r.inArb[p].Init(r.totalSlots)
		r.outArb[p].Init(topology.NumPorts)
	}
	r.injArb.Init(flit.NumVNs)

	if opts.AlwaysBuffered {
		r.mode = ModeBuffered
		for d := topology.Dir(0); d < topology.NumDirs; d++ {
			if wires.Ports[d].Exists() {
				r.down[d] = downstream{tracking: true, credits: cfg.VCsPerVN}
				r.gossipLow += r.gossipLowFull()
			}
		}
	} else {
		r.mode = ModeBless
		if meter != nil {
			meter.SetGated(true)
		}
	}
	s.next++
	return r
}

// Node implements router.Router.
func (r *Router) Node() topology.NodeID { return r.node }

// Reset rewinds the router to its freshly constructed state, keeping
// the SRAM slot arrays, escape FIFOs and scratch buffers, and reseeding
// the deflection randomness with seed (the root of the stream number a
// fresh construction would have consumed). The meter's gating is
// re-established to the constructor's choice for the router's starting
// mode. Part of the cross-cell network-reuse path.
func (r *Router) Reset(seed int64) {
	r.defl.Reseed(seed)
	r.monitor.Reset()
	for p := 0; p < topology.NumPorts; p++ {
		clear(r.in[p])
		r.esc[p] = r.esc[p][:0]
		r.inArb[p].Reset()
		r.outArb[p].Reset()
		r.cands[p] = cand{}
		r.occ[p] = 0
		r.route[p] = [topology.NumPorts]uint64{}
	}
	r.injArb.Reset()
	r.injArmedAt = [flit.NumVNs]uint64{}
	r.latches = r.latches[:0]
	r.dflits = r.dflits[:0]
	r.dports = r.dports[:0]
	r.bufferedFrom = 0
	r.held = 0
	r.dispatched = 0
	r.misrouteTripped = false
	r.deflections = 0
	r.modeCycles = [numModes]uint64{}
	r.forwardSwitches = 0
	r.reverseSwitches = 0
	r.gossipSwitches = 0
	r.escapeEvents = 0
	r.blockedOut = [topology.NumDirs]bool{}
	r.deadOut = [topology.NumDirs]bool{}
	r.dead = false
	if r.alwaysBuffered {
		r.mode = ModeBuffered
		r.gossipLow = 0
		for d := topology.Dir(0); d < topology.NumDirs; d++ {
			if r.wires.Ports[d].Exists() {
				r.down[d] = downstream{tracking: true, credits: r.cfg.VCsPerVN}
				r.gossipLow += r.gossipLowFull()
			} else {
				r.down[d] = downstream{}
			}
		}
		if r.meter != nil {
			r.meter.SetGated(false)
		}
	} else {
		r.mode = ModeBless
		r.gossipLow = 0
		for d := topology.Dir(0); d < topology.NumDirs; d++ {
			r.down[d] = downstream{}
		}
		if r.meter != nil {
			r.meter.SetGated(true)
		}
	}
}

// SetPortBlocked marks (or clears) output d as fault-blocked for data:
// usableOut then treats the link as missing, so flits route around it.
// Scenario link throttling toggles this at duty-window boundaries.
func (r *Router) SetPortBlocked(d topology.Dir, blocked bool) { r.blockedOut[d] = blocked }

// SetPortDead marks output d permanently dead: data is blocked and
// credit/control notifications stop flowing on the wire.
func (r *Router) SetPortDead(d topology.Dir) {
	r.blockedOut[d] = true
	r.deadOut[d] = true
}

// SetDead freezes the router entirely (scenario dead-router fault): Tick
// and FastForward become no-ops, Quiescent reports true, and any held
// flits stay parked — still visible to ForEachFlit, so the checker's
// conservation ledger keeps balancing.
func (r *Router) SetDead() { r.dead = true }

// Mode returns the router's current operating mode.
func (r *Router) Mode() Mode { return r.mode }

// ModeCycles returns the cycles spent in each mode (Switching counts
// separately; the duty-cycle experiment folds it into backpressureless,
// since the datapath still deflects during the window).
func (r *Router) ModeCycles() [3]uint64 { return r.modeCycles }

// ForwardSwitches returns the number of bless->buffered transitions.
func (r *Router) ForwardSwitches() uint64 { return r.forwardSwitches }

// ReverseSwitches returns the number of buffered->bless transitions.
func (r *Router) ReverseSwitches() uint64 { return r.reverseSwitches }

// GossipSwitches returns how many forward switches were gossip-induced.
func (r *Router) GossipSwitches() uint64 { return r.gossipSwitches }

// EscapeEvents returns how many flits used the escape latches.
func (r *Router) EscapeEvents() uint64 { return r.escapeEvents }

// Deflections returns the misroutes issued by this router.
func (r *Router) Deflections() uint64 { return r.deflections }

// Intensity returns the current smoothed local traffic intensity.
func (r *Router) Intensity() float64 { return r.monitor.Value() }

// BufferedFlits returns flits currently in SRAM slots and escape latches.
func (r *Router) BufferedFlits() int { return r.held }

// LatchedFlits returns flits currently in bless-mode pipeline latches.
func (r *Router) LatchedFlits() int { return len(r.latches) }

// Quiescent implements the kernel's active-set contract (sim.Quiescer).
// An AFC router may be skipped only when ticking is a provable no-op
// beyond the per-cycle bookkeeping FastForward replays:
//
//   - No flit is held (SRAM, escape latches, pipeline latches), in
//     flight toward this router, or awaiting injection, and no credit or
//     control notification is in flight either — any of those is a wake
//     edge the pipe counters expose.
//   - The mode cannot change on its own. ModeSwitching always ticks (a
//     transition is completing). An adaptive ModeBuffered router always
//     ticks too: its EWMA decay is what triggers the reverse switch.
//   - An adaptive ModeBless router additionally requires its 4-cycle
//     window to be all-zero: Observe(0) moves the EWMA toward the window
//     average, so with stale nonzero window entries the EWMA could still
//     climb across the forward-switch threshold during idle cycles. With
//     a clear window the EWMA decays monotonically, and the last
//     decideMode already proved it at or below the threshold (under the
//     misroute-threshold ablation policy the EWMA is not consulted at
//     all, and the misroute trip cannot fire without traffic).
//   - A ModeBless router whose gossip condition currently holds must
//     tick: decideMode would begin a forward switch. The condition can be
//     true while everything else is idle — a reverse switch lands the
//     router in ModeBless without re-evaluating gossip that same cycle,
//     and a tracked downstream may still be below the watermark — so it
//     is checked here rather than argued frozen-false. While no credits
//     or control notifications arrive the credit mirrors cannot change,
//     so once the condition is false it stays false across skipped
//     cycles.
//
// This is exactly the contract the sharded tick (internal/network)
// leans on: whenever Quiescent is true, Tick is bit-for-bit equivalent
// to FastForward(1), so a skip decision made from a start-of-cycle view
// of the pipe counters (which cannot see same-cycle sends parked in
// staged boundary registers) still produces serial-identical state.
func (r *Router) Quiescent(now uint64) bool {
	if r.dead {
		return true
	}
	if r.held != 0 || len(r.latches) != 0 {
		return false
	}
	switch r.mode {
	case ModeSwitching:
		return false
	case ModeBuffered:
		if !r.alwaysBuffered {
			return false
		}
	case ModeBless:
		if r.misrouteThreshold == 0 && !r.monitor.WindowClear() {
			return false
		}
		if r.gossipTriggered() {
			return false
		}
	}
	// The inbox tallies mirror the summed InFlight of every inbound
	// pipe at all times (see router.Wires.Tally), so one cache line of
	// loads decides exactly what a pipe scan would.
	if r.inbox[0]|r.inbox[1]|r.inbox[2] != 0 {
		return false
	}
	return r.src.QueuedFlits() == 0
}

// FastForward applies k skipped idle cycles (sim.Quiescer): static
// energy, mode duty-cycle accounting, and the intensity monitor's
// Observe(0) sequence, replayed bit-for-bit. On the backpressureless
// datapath each idle tick also rotates the injection arbiter by one (its
// Pick predicate is always true) and zeroes the idle injection registers
// via armInjection's empty-queue branch; the buffered datapath's
// injection touches neither.
func (r *Router) FastForward(k uint64) {
	if r.dead {
		return
	}
	if r.meter != nil {
		r.meter.StaticTicks(k)
	}
	r.modeCycles[r.mode] += k
	r.monitor.ObserveIdle(k)
	if r.mode != ModeBuffered {
		r.injArb.Advance(k)
		r.injArmedAt = [flit.NumVNs]uint64{}
	}
}

// Credits exposes the tracked free-slot count of the neighbor on d for vn
// (invariant tests).
func (r *Router) Credits(d topology.Dir, vn flit.VN) (int, bool) {
	return r.down[d].credits[vn], r.down[d].tracking
}

// Occupancy returns the occupied SRAM slots of vn at input port p.
// Escape latches are outside the credited SRAM pool and not counted;
// the invariant checker reconciles this against the upstream router's
// tracked credits.
func (r *Router) Occupancy(p topology.Dir, vn flit.VN) int {
	return bits.OnesCount64(r.occ[p] & r.vnMask[vn])
}

// ForEachFlit calls fn for every flit currently held in this router:
// SRAM slots, escape latches, and bless-mode pipeline latches
// (invariant checker's conservation and age scans).
func (r *Router) ForEachFlit(fn func(*flit.Flit)) {
	for p := range r.in {
		for _, f := range r.in[p] {
			if f != nil {
				fn(f)
			}
		}
		for _, f := range r.esc[p] {
			fn(f)
		}
	}
	for _, l := range r.latches {
		fn(l.f)
	}
}

// Tick implements one cycle of AFC operation.
func (r *Router) Tick(now uint64) {
	if r.dead {
		return
	}
	if r.meter != nil {
		r.meter.StaticTick()
	}
	r.modeCycles[r.mode]++
	r.dispatched = 0

	r.receiveCtrl(now)
	r.receiveCredits(now)

	// Complete a pending forward switch: once the last
	// backpressureless-window arrivals (latched at bufferedFrom-1) have
	// been dispatched, the router operates in backpressured mode.
	if r.mode == ModeSwitching && now >= r.bufferedFrom && len(r.latches) == 0 {
		r.mode = ModeBuffered
	}

	switch r.mode {
	case ModeBuffered:
		r.bufferedCycle(now)
	default:
		r.blessCycle(now)
	}

	r.receive(now)
	r.monitor.Observe(r.dispatched)
	r.decideMode(now)
}

// receiveCtrl applies neighbors' mode notifications.
func (r *Router) receiveCtrl(now uint64) {
	// inbox[2] counts ctrl values in flight toward this node: zero
	// means every Recv below would miss, so the scan is skipped
	// outright. In bless-mode steady state no ctrl traffic exists at
	// all, so this turns the per-cycle ctrl poll into one load.
	// (Nonzero does not imply an arrival now — the scan still polls.)
	if r.inbox[2] == 0 {
		return
	}
	for _, d := range r.nbr {
		pl := &r.wires.Ports[d]
		if pl.CtrlIn == nil {
			continue
		}
		c, ok := pl.CtrlIn.Recv(now)
		if !ok {
			continue
		}
		switch c {
		case link.CtrlStartCredits:
			// The neighbor's buffers are empty at the announcement, so
			// the initial credit count is the full per-VN capacity.
			r.gossipLow -= r.gossipLowAt(d)
			r.down[d] = downstream{tracking: true, credits: r.cfg.VCsPerVN}
			r.gossipLow += r.gossipLowFull()
		case link.CtrlStopCredits:
			// Per the paper, occupancy is considered empty immediately;
			// in-flight credits for the stopped neighbor are ignored.
			r.gossipLow -= r.gossipLowAt(d)
			r.down[d] = downstream{}
		}
	}
}

// receiveCredits applies credit backflow from tracked neighbors.
func (r *Router) receiveCredits(now uint64) {
	if r.inbox[1] == 0 {
		return // see receiveCtrl: no credits in flight toward this node
	}
	for _, d := range r.nbr {
		pl := &r.wires.Ports[d]
		if pl.CreditIn == nil {
			continue
		}
		c, ok := pl.CreditIn.Recv(now)
		if !ok {
			continue
		}
		ds := &r.down[d]
		if !ds.tracking {
			continue // stale credit after a stop notification
		}
		ds.credits[c.VN]++
		if ds.credits[c.VN] == r.cfg.GossipFreeSlots {
			r.gossipLow--
		}
		if ds.credits[c.VN] > r.cfg.VCsPerVN[c.VN] {
			panic(fmt.Sprintf("afc %d: credit overflow toward %s vn %s", r.node, d, c.VN))
		}
	}
}

// usableOut reports whether output d can carry f this cycle, ignoring
// same-cycle port contention (the caller masks taken ports).
func (r *Router) usableOut(f *flit.Flit, d topology.Dir) bool {
	if !r.wires.Ports[d].Exists() || r.blockedOut[d] {
		return false
	}
	ds := &r.down[d]
	return !ds.tracking || ds.credits[f.VN] > 0
}

// receive accepts this cycle's link arrivals: into buffer slots when the
// backpressured datapath is (or is about to be) active, into pipeline
// latches otherwise. The boundary is exact: flits sent by neighbors under
// credit accounting arrive at or after bufferedFrom (see the package
// comment), so buffering them can never overflow.
func (r *Router) receive(now uint64) {
	if r.inbox[0] == 0 {
		return // see receiveCtrl: no flits in flight toward this node
	}
	buffered := r.mode == ModeBuffered ||
		(r.mode == ModeSwitching && now >= r.bufferedFrom)
	for _, d := range r.nbr {
		pl := &r.wires.Ports[d]
		if pl.In == nil {
			continue
		}
		f, ok := pl.In.Recv(now)
		if !ok {
			continue
		}
		if buffered {
			s := r.freeSlot(d, f.VN)
			if s < 0 {
				panic(fmt.Sprintf("afc %d: buffer overflow on %s vn %s (flit %v)", r.node, d, f.VN, f))
			}
			r.writeSlot(d, s, f)
		} else {
			r.latches = append(r.latches, latched{f: f, port: d, arrivedAt: now})
			if r.meter != nil {
				r.meter.Latch()
			}
		}
	}
}

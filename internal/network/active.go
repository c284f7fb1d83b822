package network

import (
	"afcnet/internal/core"
	"afcnet/internal/deflect"
	"afcnet/internal/ni"
	"afcnet/internal/router"
	"afcnet/internal/vcrouter"
)

// The router bank registers a whole mesh's routers as ONE kernel entry
// per network. This buys two things over per-router registration: the
// hot per-cycle loop dispatches Tick/Quiescent/FastForward on a concrete
// type (devirtualized, inlinable) instead of through the router.Router
// interface, and the active-set skip happens per router inside the bank,
// so one busy router does not force its idle neighbors through full Tick
// bodies. Routers tick in node order, exactly as one-entry-per-router
// registration would.
//
// The bank holds one band per shard — a single band of every node on a
// serial network, one row band per shard on a sharded one (shard.go).
// Only the call into a band goes through the routerBand interface; each
// band type is written out per router kind on purpose, so every
// per-router call inside its loops is on a concrete pointer. A generic
// band would route those calls through the type parameter's dictionary
// and give the devirtualization back.

// routerBand is one shard's routers of one kind, in node order.
type routerBand interface {
	// tick runs one cycle: each router ticks, or fast-forwards when it
	// is quiescent.
	tick(now uint64)
	quiescent(now uint64) bool
	fastForward(cycles uint64)
}

type vcBand []*vcrouter.Router

func (b vcBand) tick(now uint64) {
	for _, r := range b {
		if r.Quiescent(now) {
			r.FastForward(1)
		} else {
			r.Tick(now)
		}
	}
}

func (b vcBand) quiescent(now uint64) bool {
	for _, r := range b {
		if !r.Quiescent(now) {
			return false
		}
	}
	return true
}

func (b vcBand) fastForward(cycles uint64) {
	for _, r := range b {
		r.FastForward(cycles)
	}
}

type deflectBand []*deflect.Router

func (b deflectBand) tick(now uint64) {
	for _, r := range b {
		if r.Quiescent(now) {
			r.FastForward(1)
		} else {
			r.Tick(now)
		}
	}
}

func (b deflectBand) quiescent(now uint64) bool {
	for _, r := range b {
		if !r.Quiescent(now) {
			return false
		}
	}
	return true
}

func (b deflectBand) fastForward(cycles uint64) {
	for _, r := range b {
		r.FastForward(cycles)
	}
}

type dropBand []*deflect.DropRouter

func (b dropBand) tick(now uint64) {
	for _, r := range b {
		if r.Quiescent(now) {
			r.FastForward(1)
		} else {
			r.Tick(now)
		}
	}
}

func (b dropBand) quiescent(now uint64) bool {
	for _, r := range b {
		if !r.Quiescent(now) {
			return false
		}
	}
	return true
}

func (b dropBand) fastForward(cycles uint64) {
	for _, r := range b {
		r.FastForward(cycles)
	}
}

type coreBand []*core.Router

func (b coreBand) tick(now uint64) {
	for _, r := range b {
		if r.Quiescent(now) {
			r.FastForward(1)
		} else {
			r.Tick(now)
		}
	}
}

func (b coreBand) quiescent(now uint64) bool {
	for _, r := range b {
		if !r.Quiescent(now) {
			return false
		}
	}
	return true
}

func (b coreBand) fastForward(cycles uint64) {
	for _, r := range b {
		r.FastForward(cycles)
	}
}

// routerBank is the network's one router entry in the kernel.
type routerBank struct {
	n     *Network
	bands []routerBand
	// tick is the stored tickShard method value of a sharded bank, so
	// group.Run closes over nothing per cycle; nil on a serial network.
	tick func(shard int, now uint64)
}

// registerRouterBank slices n.routers into one band per shard and
// registers the bank as a single kernel entry. The kind switch needs no
// fallback: newRouter has already panicked on an unknown kind.
func (n *Network) registerRouterBank() {
	bands := n.bands
	if bands == nil {
		bands = Bands(n.mesh, 1)
	}
	b := &routerBank{n: n}
	for _, band := range bands {
		rs := n.routers[band.Lo:band.Hi]
		var rb routerBand
		switch n.cfg.Kind {
		case Backpressured, BackpressuredIdealBypass:
			rb = vcBand(concrete[*vcrouter.Router](rs))
		case Bless:
			rb = deflectBand(concrete[*deflect.Router](rs))
		case BlessDrop:
			rb = dropBand(concrete[*deflect.DropRouter](rs))
		case AFC, AFCAlwaysBuffered:
			rb = coreBand(concrete[*core.Router](rs))
		}
		b.bands = append(b.bands, rb)
	}
	if n.group != nil {
		b.tick = b.tickShard
	}
	n.kernel.Register(b)
}

// concrete asserts every router of rs to its concrete type R. Build-time
// only: the bands it fills are what keep the hot loops devirtualized.
func concrete[R router.Router](rs []router.Router) []R {
	out := make([]R, len(rs))
	for i, r := range rs {
		out[i] = r.(R)
	}
	return out
}

// Tick implements sim.Ticker: the single band on the caller, or one
// sharded cycle through the worker group (shard.go).
func (b *routerBank) Tick(now uint64) {
	if b.tick == nil {
		b.bands[0].tick(now)
		return
	}
	b.tickSharded(now)
}

// Quiescent implements sim.Quiescer. Serial-side call between cycles.
// Pending boundary commits of a sharded network veto quiescence
// outright: a parked send is in-flight traffic no router sees yet.
func (b *routerBank) Quiescent(now uint64) bool {
	if b.n.stagedPending() {
		return false
	}
	for _, rb := range b.bands {
		if !rb.quiescent(now) {
			return false
		}
	}
	return true
}

// FastForward implements sim.Quiescer. Skipped cycles advance serially
// on every network: fast-forward bodies are cheap static bookkeeping,
// not worth a barrier.
func (b *routerBank) FastForward(cycles uint64) {
	for _, rb := range b.bands {
		rb.fastForward(cycles)
	}
}

// houseKeeper is the kernel entry, right after the router bank, that
// retransmits the drop kind's due NACKed packets. As a Quiescer/Sleeper
// it lets NACK backoff waits fast-forward; on the other kinds no NACK is
// ever scheduled, so it is always quiescent and never wakes.
type houseKeeper struct{ n *Network }

// Tick implements sim.Ticker: re-enqueue every packet whose NACK is due
// at its source.
func (h *houseKeeper) Tick(now uint64) {
	n := h.n
	for len(n.nacks) > 0 && n.nacks[0].Due <= now {
		e := n.nacks.Pop()
		switch n.nis[e.src].Retransmit(now, e.pkt) {
		case ni.RetransmitDeferred:
			// The current copy is still draining out of the source; retry
			// shortly — dropping this NACK would stall the packet.
			n.nacks.Push(now+32, e)
		default:
			delete(n.nackPending, e.pkt)
		}
	}
}

// Quiescent implements sim.Quiescer: with no NACK due, Tick does nothing.
func (h *houseKeeper) Quiescent(now uint64) bool {
	return len(h.n.nacks) == 0 || h.n.nacks[0].Due > now
}

// FastForward implements sim.Quiescer: idle cycles leave no trace.
func (h *houseKeeper) FastForward(uint64) {}

// NextWake implements sim.Sleeper: the earliest scheduled NACK
// retransmission. While the system is frozen no new NACKs are scheduled,
// so the heap head is the only future state change.
func (h *houseKeeper) NextWake(now uint64) (uint64, bool) {
	if len(h.n.nacks) == 0 {
		return 0, false
	}
	return h.n.nacks[0].Due, true
}

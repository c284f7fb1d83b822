package router

import "afcnet/internal/flit"

// Injection is the injection stage of the backpressureless datapaths
// (the deflection and drop routers and AFC's backpressureless mode): a
// round-robin over virtual networks and one injection register per
// virtual network. The flit at the head of a virtual network's NI queue
// enters the register and may leave from the next cycle on, so injected
// flits see the same 2-cycle pipeline as network flits. Each router
// keeps its own admission loop: a flit leaves only for an output still
// free after the network flits (footnote 3 of the paper). The methods
// take the NI's answers, not the NI, so that each inlines.
type Injection struct {
	arb RoundRobin
	// armedAt[vn] is the first cycle the flit in vn's register may
	// leave (it entered the cycle before), or 0 while it is empty.
	armedAt [flit.NumVNs]uint64
}

// Init readies the stage in place, at the state Reset restores.
func (s *Injection) Init() { *s = Injection{arb: RoundRobin{n: flit.NumVNs}} }

// Reset rewinds the stage to its freshly initialized state.
func (s *Injection) Reset() {
	s.arb.Reset()
	s.armedAt = [flit.NumVNs]uint64{}
}

// Start begins a cycle: it grants the virtual network this cycle's
// scan starts at, and reports whether the NI holds a flit (queued is
// its QueuedFlits). With none, every register empties.
func (s *Injection) Start(queued int) (first int, ok bool) {
	first = s.arb.Next()
	if queued == 0 {
		s.armedAt = [flit.NumVNs]uint64{}
		return first, false
	}
	return first, true
}

// Armed advances vn's register by a cycle and reports whether its flit
// may leave now; head reports whether Peek(vn) found a flit. Without
// one the register empties.
func (s *Injection) Armed(now uint64, vn flit.VN, head bool) bool {
	if !head {
		s.armedAt[vn] = 0
		return false
	}
	if s.armedAt[vn] == 0 {
		s.armedAt[vn] = now + 1
	}
	return now >= s.armedAt[vn]
}

// Enter moves f, vn's flit just popped from the NI, from the register
// into the router at now, dating its injection from register entry
// like a buffer write. vn's next flit enters the register now.
func (s *Injection) Enter(now uint64, vn flit.VN, f *flit.Flit) {
	f.InjectedAt = s.armedAt[vn] - 1
	s.armedAt[vn] = now + 1
}

// Idle replays k cycles with nothing queued (Start with queued 0):
// the routers' FastForward.
func (s *Injection) Idle(k uint64) {
	s.arb.Advance(k)
	s.armedAt = [flit.NumVNs]uint64{}
}

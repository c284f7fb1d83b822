package core

import (
	"fmt"
	"math/bits"

	"afcnet/internal/flit"
	"afcnet/internal/link"
	"afcnet/internal/topology"
)

// bufferedCycle performs one cycle of backpressured operation with lazy VC
// allocation: every occupied single-flit VC is an independent switch
// candidate (flit-by-flit routing), there is no VC-allocation stage, and
// winners depart with no VC assignment — the downstream buffer write picks
// a free slot.
//
// Whether a buffered flit may compete depends only on its DOR output and
// its virtual network, which the paper notes hardware finds "by simple
// daisy-chaining" (Section III-E). The input stage does the same with
// words: okOut[o] holds the slots whose virtual network may use output o
// this cycle, so port p's eligible slots are OR_o route[p][o] & okOut[o],
// and its round-robin arbiter grants the first of them at or after its
// pointer. Two orderings make this exact without per-slot checks:
//
//   - Credits and blocked ports change only in the output stage (and
//     between ticks), after every candidate has been chosen, so okOut
//     computed once at the top is what a per-slot check would read.
//   - Every slot write (receive, bufferedInject) happens after this
//     cycle's input stage, and every escape push happens in a
//     backpressureless tick, which never runs the input stage. So any
//     flit the input stage sees arrived in an earlier cycle and is ready
//     to compete: no per-entry ready cycle is needed.
func (r *Router) bufferedCycle(now uint64) {
	// Fast path: with no buffered flit and no escape entry there is no
	// switch candidate, so neither allocation stage can grant — and a
	// grantless arbitration leaves the pointer untouched, so skipping
	// both stages is bit-for-bit identical to running them. This is the
	// dominant cycle for buffered-mode routers at low load (arrivals in
	// flight on the pipes keep them from full quiescence).
	if r.held == 0 {
		r.bufferedInject(now)
		return
	}

	var okOut [topology.NumPorts]uint64
	okOut[topology.Local] = ^uint64(0)
	for d := topology.Dir(0); d < topology.NumDirs; d++ {
		if !r.wires.Ports[d].Exists() || r.blockedOut[d] {
			continue
		}
		ds := &r.down[d]
		if !ds.tracking {
			okOut[d] = ^uint64(0)
			continue
		}
		for vn := flit.VN(0); vn < flit.NumVNs; vn++ {
			if ds.credits[vn] > 0 {
				okOut[d] |= r.vnMask[vn]
			}
		}
	}

	// Input stage of separable switch allocation: one candidate per input
	// port. Escape latches drain with priority (they are the oldest
	// uncredited flits; see the package comment). req[o] collects the
	// input ports whose candidate requests output o.
	var req [topology.NumPorts]uint64
	for p := 0; p < topology.NumPorts; p++ {
		if e := r.esc[p]; len(e) > 0 {
			f := e[0]
			out := r.routes.DOR(f.Dst)
			if okOut[out]&r.vnMask[f.VN] != 0 {
				r.cands[p] = cand{escape: true}
				req[out] |= 1 << uint(p)
				continue
			}
			// Escape head blocked on credits; regular slots may still
			// compete this cycle.
		}
		if r.occ[p] == 0 {
			continue
		}
		rt := &r.route[p]
		m := rt[0]&okOut[0] | rt[1]&okOut[1] | rt[2]&okOut[2] | rt[3]&okOut[3] | rt[4]&okOut[4]
		s := r.inArb[p].PickFirst(m)
		if s < 0 {
			continue
		}
		bit := uint64(1) << uint(s)
		out := 0
		for rt[out]&bit == 0 {
			out++
		}
		r.cands[p] = cand{slot: s}
		req[out] |= 1 << uint(p)
	}

	// Output stage: one grant per output port (router.EjectWidth for the
	// ejection port, like every router kind).
	for o := 0; o < topology.NumPorts; o++ {
		grants := 1
		if topology.Dir(o) == topology.Local {
			grants = r.ejectWidth
		}
		for g := 0; g < grants && req[o] != 0; g++ {
			win := r.outArb[o].PickFirst(req[o])
			req[o] &^= 1 << uint(win)
			r.sendBuffered(now, topology.Dir(win), topology.Dir(o))
		}
	}

	r.bufferedInject(now)
}

func (r *Router) sendBuffered(now uint64, in, out topology.Dir) {
	c := r.cands[in]
	var f *flit.Flit
	if c.escape {
		f = r.esc[in][0]
		copy(r.esc[in], r.esc[in][1:])
		r.esc[in] = r.esc[in][:len(r.esc[in])-1]
		r.held--
		// Escape entries are outside the credited SRAM: no credit is
		// returned upstream for them.
	} else {
		f = r.in[in][c.slot]
		r.in[in][c.slot] = nil
		bit := uint64(1) << uint(c.slot)
		r.occ[in] &^= bit
		r.route[in][out] &^= bit
		r.held--
		if r.meter != nil {
			r.meter.BufRead()
		}
		if in != topology.Local && !r.deadOut[in] {
			if pl := r.wires.Ports[in]; pl.CreditOut != nil {
				pl.CreditOut.Send(now, link.Credit{VC: c.slot, VN: f.VN})
				if r.meter != nil {
					r.meter.Credit()
				}
			}
		}
	}
	if r.meter != nil {
		r.meter.SwArb()
		r.meter.Xbar()
	}
	r.dispatched++

	if out == topology.Local {
		r.sink.Deliver(now, f)
		return
	}
	if ds := &r.down[out]; ds.tracking {
		vn := f.VN
		ds.credits[vn]--
		if ds.credits[vn] == r.cfg.GossipFreeSlots-1 {
			r.gossipLow++
		}
		if ds.credits[vn] < 0 {
			panic(fmt.Sprintf("afc %d: negative credits toward %s vn %s", r.node, out, vn))
		}
	}
	// Lazy VC allocation: the flit departs with no VC; the downstream
	// buffer write assigns one.
	f.VC = flit.NoVC
	f.Hops++
	r.wires.Ports[out].Out.Send(now, f)
	if r.meter != nil {
		r.meter.LinkHop()
	}
}

// bufferedInject pulls up to one flit per virtual network per cycle from
// the NI into free local-port slots (the Garnet-style NI model used by
// every router kind).
func (r *Router) bufferedInject(now uint64) {
	// Empty NI: every peek below would return nil.
	if r.src.QueuedFlits() == 0 {
		return
	}
	for vn := flit.VN(0); vn < flit.NumVNs; vn++ {
		f := r.src.Peek(vn)
		if f == nil {
			continue
		}
		s := r.freeSlot(topology.Local, vn)
		if s < 0 {
			continue
		}
		f = r.src.Pop(vn)
		f.InjectedAt = now
		r.writeSlot(topology.Local, s, f)
	}
}

// writeSlot buffers f in free slot s of input port p. Lazy VC
// allocation: the buffer write assigns the VC.
func (r *Router) writeSlot(p topology.Dir, s int, f *flit.Flit) {
	f.VC = s
	r.in[p][s] = f
	bit := uint64(1) << uint(s)
	r.occ[p] |= bit
	r.route[p][r.routes.DOR(f.Dst)] |= bit
	r.held++
	if r.meter != nil {
		r.meter.BufWrite()
	}
}

// freeSlot returns a free slot index for vn at port p, or -1. This is the
// lazy VC allocation itself: free slots are pre-discoverable by simple
// daisy-chaining, adding no latency to the critical path (Section III-E).
// Each virtual network's slots are a contiguous ascending range, so the
// trailing-zero count of the free bits inside vnMask is its lowest free
// slot.
func (r *Router) freeSlot(p topology.Dir, vn flit.VN) int {
	m := ^r.occ[p] & r.vnMask[vn]
	if m == 0 {
		return -1
	}
	return bits.TrailingZeros64(m)
}

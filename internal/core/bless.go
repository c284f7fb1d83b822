package core

import (
	"fmt"

	"afcnet/internal/flit"
	"afcnet/internal/topology"
)

// blessCycle performs one cycle of backpressureless (deflection)
// operation. It differs from a plain deflection router in exactly two
// ways (Section III): outputs toward tracked (backpressured-mode)
// neighbors are masked per virtual network when credits run out, and a
// flit left with no usable output is parked in its port's escape latches
// and forces a forward mode-switch.
func (r *Router) blessCycle(now uint64) {
	r.dflits = r.dflits[:0]
	r.dports = r.dports[:0]
	for _, l := range r.latches {
		if l.arrivedAt >= now {
			panic(fmt.Sprintf("afc %d: latch holds current-cycle flit", r.node))
		}
		r.dflits = append(r.dflits, l.f)
		r.dports = append(r.dports, l.port)
	}
	r.latches = r.latches[:0]

	assignments := r.defl.Assign(r.dflits, r.usableOut, r.ejectWidth)
	var taken [topology.NumDirs]bool
	for i, a := range assignments {
		f := r.dflits[i]
		if !a.OK {
			r.escapeBuffer(now, r.dports[i], f)
			continue
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
		if r.misrouteThreshold > 0 && f.Deflections >= r.misrouteThreshold {
			r.misrouteTripped = true
		}
		r.blessSend(now, a.Dir, f)
	}

	r.blessInject(now, &taken)
}

func (r *Router) eject(now uint64, f *flit.Flit) {
	r.routedFlits++
	r.ejectedFlits++
	r.dispatched++
	if r.meter != nil {
		r.meter.SwArb()
		r.meter.Xbar()
	}
	r.sink.Deliver(now, f)
}

func (r *Router) blessSend(now uint64, d topology.Dir, f *flit.Flit) {
	if ds := &r.down[d]; ds.tracking {
		vn := f.VN
		ds.credits[vn]--
		if ds.credits[vn] == r.cfg.GossipFreeSlots-1 {
			r.gossipLow++
		}
		if ds.credits[vn] < 0 {
			panic(fmt.Sprintf("afc %d: negative credits toward %s vn %s", r.node, d, vn))
		}
	}
	r.routedFlits++
	r.dispatched++
	f.Hops++
	r.wires.Ports[d].Out.Send(now, f)
	if r.meter != nil {
		r.meter.SwArb()
		r.meter.Xbar()
		r.meter.LinkHop()
	}
}

// armInjection advances vn's injection-stage register (see
// deflect.Router.armInjection; injected flits must see the same 2-cycle
// pipeline as network flits).
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

// blessInject admits up to one new flit per virtual network, each needing
// an output port that is both free and usable for it (injection-port
// backpressure).
func (r *Router) blessInject(now uint64, taken *[topology.NumDirs]bool) {
	start := r.injArb.Next()
	// Empty NI: every armInjection would peek nil, zero its register and
	// decline, so zeroing them all and returning is bit-for-bit identical.
	if r.srcCount != nil && r.srcCount.QueuedFlits() == 0 {
		r.injArmedAt = [flit.NumVNs]uint64{}
		return
	}
	for i := 0; i < flit.NumVNs; i++ {
		vn := flit.VN((start + i) % flit.NumVNs)
		if !r.armInjection(now, vn) {
			continue
		}
		f := r.src.Peek(vn)
		canRoute := false
		for d := topology.Dir(0); d < topology.NumDirs; d++ {
			if !taken[d] && r.usableOut(f, d) {
				canRoute = true
				break
			}
		}
		if !canRoute {
			continue
		}
		f = r.src.Pop(vn)
		// Latency accounting starts at injection-register entry, like the
		// buffer write of the backpressured datapath.
		entered := r.injArmedAt[vn] - 1
		r.injArmedAt[vn] = now + 1
		f.InjectedAt = entered
		r.injectedFlits++

		one := []*flit.Flit{f}
		a := r.defl.Assign(one, func(ff *flit.Flit, d topology.Dir) bool {
			return !taken[d] && r.usableOut(ff, d)
		}, 0)[0]
		if !a.OK {
			panic(fmt.Sprintf("afc %d: injection with no usable port", r.node))
		}
		taken[a.Dir] = true
		if a.Deflected {
			f.Deflections++
			r.deflections++
		}
		r.blessSend(now, a.Dir, f)
	}
}

// escapeBuffer parks a flit that found every usable output taken or
// credit-masked (only possible around mode-switch windows) and forces a
// forward switch so the backpressured datapath will drain it.
func (r *Router) escapeBuffer(now uint64, port topology.Dir, f *flit.Flit) {
	if len(r.esc[port]) >= r.escCap {
		panic(fmt.Sprintf("afc %d: escape latch overflow on port %s", r.node, port))
	}
	r.esc[port] = append(r.esc[port], f)
	r.held++
	r.escapeEvents++
	if r.meter != nil {
		r.meter.Latch()
	}
	if r.mode == ModeBless {
		r.beginForwardSwitch(now, false)
	}
}

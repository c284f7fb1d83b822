package core

import (
	"testing"

	"afcnet/internal/flit"
	"afcnet/internal/link"
	"afcnet/internal/router"
	"afcnet/internal/topology"
)

// slotEligible is the per-slot switch-eligibility rule that the buffered
// input stage's route and okOut masks replace: a buffered flit may
// compete this cycle iff its DOR output is the ejection port, or a wired,
// unblocked port whose neighbor is untracked or has a credit on the
// flit's virtual network. credits holds the per-VN counts the input
// stage will read (this cycle's credit arrivals included).
func slotEligible(r *Router, f *flit.Flit, credits *[topology.NumDirs][flit.NumVNs]int) bool {
	out := r.routes.DOR(f.Dst)
	if out == topology.Local {
		return true
	}
	if !r.wires.Ports[out].Exists() || r.blockedOut[out] {
		return false
	}
	return !r.down[out].tracking || credits[out][f.VN] > 0
}

// checkRoute asserts that route[p] partitions occ[p] by each held flit's
// DOR output.
func checkRoute(t *testing.T, r *Router, now uint64) {
	t.Helper()
	for p := 0; p < topology.NumPorts; p++ {
		var union uint64
		for o := 0; o < topology.NumPorts; o++ {
			if union&r.route[p][o] != 0 {
				t.Fatalf("cycle %d port %d: route masks overlap at output %d", now, p, o)
			}
			union |= r.route[p][o]
		}
		if union != r.occ[p] {
			t.Fatalf("cycle %d port %d: OR of route masks %#x, occ %#x", now, p, union, r.occ[p])
		}
		for s, f := range r.in[p] {
			if f != nil && r.route[p][r.routes.DOR(f.Dst)]&(1<<uint(s)) == 0 {
				t.Fatalf("cycle %d port %d slot %d: flit to %d missing from route mask of output %s",
					now, p, s, f.Dst, r.routes.DOR(f.Dst))
			}
		}
	}
}

// TestBufferedAllocatorMatchesSlotPredicate drives an always-backpressured
// router whose West input and NI hold flits for two outputs. East returns
// request credits at once but holds data credits for 100 of every 200
// cycles, so its data VN runs dry; South returns every credit but is
// fault-blocked for two stretches of cycles. Before every tick the test
// predicts each input port's switch candidate as the per-slot allocator
// did: Pick on a copy of the port's arbiter with slotEligible as the
// predicate. After the tick the router's candidates and arbiters must
// match the prediction, and route must partition occ.
func TestBufferedAllocatorMatchesSlotPredicate(t *testing.T) {
	h := newHarness(t, 4, Options{AlwaysBuffered: true})
	r := h.r
	east, _ := h.mesh.Neighbor(h.node, topology.East)
	south, _ := h.mesh.Neighbor(h.node, topology.South)
	if r.routes.DOR(east) != topology.East || r.routes.DOR(south) != topology.South {
		t.Fatalf("DOR toward %d/%d is %s/%s, want East/South", east, south, r.routes.DOR(east), r.routes.DOR(south))
	}
	// The upstream West neighbor tracks credits toward the router.
	h.up[topology.West] = upstream{tracking: true, credits: r.cfg.VCsPerVN}
	dsts := []topology.NodeID{east, south}
	vns := []flit.VN{flit.VNReq, flit.VNData}
	id := uint64(0)
	for i := 0; i < 400; i++ {
		for _, vn := range vns {
			h.ni.queues[vn] = append(h.ni.queues[vn], mk(id, h.node, dsts[i%2], vn))
			id++
		}
	}

	heldData := 0 // East data credits not yet returned
	var creditRejects, blockRejects, grants int
	for c := 0; c < 800; c++ {
		r.SetPortBlocked(topology.South, (c >= 150 && c < 250) || (c >= 400 && c < 430))
		f := mk(id, 3, dsts[c%2], vns[c/2%2])
		id++
		h.trySend(topology.West, f)

		// Predict the input stage from the state it will read: credits
		// after this cycle's arrivals.
		var credits [topology.NumDirs][flit.NumVNs]int
		for d := topology.Dir(0); d < topology.NumDirs; d++ {
			credits[d] = r.down[d].credits
			if pl := r.wires.Ports[d]; pl.CreditIn != nil {
				if cr, ok := pl.CreditIn.Peek(h.now); ok && r.down[d].tracking {
					credits[d][cr.VN]++
				}
			}
		}
		var wantSlot [topology.NumPorts]int
		var wantArb [topology.NumPorts]router.RoundRobin
		for p := 0; p < topology.NumPorts; p++ {
			wantSlot[p], wantArb[p] = -1, r.inArb[p]
			r.cands[p] = cand{slot: -1} // sentinel: a grant overwrites it
			if r.held == 0 {
				continue // no candidate anywhere: the stage is skipped
			}
			wantSlot[p] = wantArb[p].Pick(func(s int) bool {
				fl := r.in[p][s]
				if fl == nil {
					return false
				}
				if slotEligible(r, fl, &credits) {
					return true
				}
				if r.blockedOut[r.routes.DOR(fl.Dst)] {
					blockRejects++
				} else {
					creditRejects++
				}
				return false
			})
			if wantSlot[p] >= 0 {
				grants++
			}
		}

		h.tick()
		for p := 0; p < topology.NumPorts; p++ {
			if len(r.esc[p]) != 0 {
				t.Fatalf("cycle %d: escape latch used in always-backpressured mode", c)
			}
			if got := r.cands[p].slot; got != wantSlot[p] {
				t.Fatalf("cycle %d port %s: candidate slot %d, per-slot rule picks %d",
					c, topology.Dir(p), got, wantSlot[p])
			}
			if r.inArb[p] != wantArb[p] {
				t.Fatalf("cycle %d port %s: arbiter %+v, per-slot scan leaves %+v",
					c, topology.Dir(p), r.inArb[p], wantArb[p])
			}
		}
		checkRoute(t, r, h.now)

		// Downstream: South and East's request VN credit every arrival at
		// once; East's data credits wait for the release windows.
		for _, fl := range h.recvAll() {
			switch d := r.routes.DOR(fl.Dst); {
			case d == topology.East && fl.VN == flit.VNData:
				heldData++
			default:
				h.wires.Ports[d].CreditIn.Send(h.now, link.Credit{VN: fl.VN})
			}
		}
		if heldData > 0 && c%200 >= 100 && h.wires.Ports[topology.East].CreditIn.CanSend(h.now) {
			h.wires.Ports[topology.East].CreditIn.Send(h.now, link.Credit{VN: flit.VNData})
			heldData--
		}
	}
	if creditRejects == 0 || blockRejects == 0 || grants == 0 {
		t.Fatalf("masking not exercised: %d credit rejects, %d blocked rejects, %d grants",
			creditRejects, blockRejects, grants)
	}
}

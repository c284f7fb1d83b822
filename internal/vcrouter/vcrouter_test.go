package vcrouter

import (
	"math/rand"
	"testing"

	"afcnet/internal/config"
	"afcnet/internal/flit"
	"afcnet/internal/link"
	"afcnet/internal/router"
	"afcnet/internal/topology"
)

// fakeNI is a minimal LocalSource/LocalSink for driving one router.
type fakeNI struct {
	queues    [flit.NumVNs][]*flit.Flit
	delivered []*flit.Flit
}

func (f *fakeNI) Peek(vn flit.VN) *flit.Flit {
	if len(f.queues[vn]) == 0 {
		return nil
	}
	return f.queues[vn][0]
}

func (f *fakeNI) Pop(vn flit.VN) *flit.Flit {
	fl := f.Peek(vn)
	if fl != nil {
		f.queues[vn] = f.queues[vn][1:]
	}
	return fl
}

func (f *fakeNI) QueuedFlits() int {
	n := 0
	for _, q := range f.queues {
		n += len(q)
	}
	return n
}

func (f *fakeNI) Deliver(_ uint64, fl *flit.Flit) { f.delivered = append(f.delivered, fl) }

func (f *fakeNI) enqueuePacket(dst topology.NodeID, vn flit.VN, length int, id uint64) {
	p := flit.Packet{ID: id, Src: 0, Dst: dst, VN: vn, Len: length}
	f.queues[vn] = append(f.queues[vn], p.Flits()...)
}

// harness wires one router at node 0 of a 2x2 mesh, holding the far ends
// of its East and South links by hand.
type harness struct {
	mesh  topology.Mesh
	r     *Router
	ni    *fakeNI
	now   uint64
	wires router.Wires
	inbox [3]int32
}

const testLinkLat = 2

func newHarness(t *testing.T) *harness {
	t.Helper()
	return newHarnessWith(t, config.Default().Baseline)
}

// newHarnessWith is newHarness with an explicit router configuration.
func newHarnessWith(t *testing.T, cfg config.Baseline) *harness {
	t.Helper()
	mesh := topology.NewMesh(2, 2)
	h := &harness{mesh: mesh, ni: &fakeNI{}}
	for _, d := range []topology.Dir{topology.East, topology.South} {
		h.wires.Ports[d] = router.PortLinks{
			Out:       link.NewData(testLinkLat + 1),
			In:        link.NewData(testLinkLat + 1),
			CreditOut: link.NewCredit(testLinkLat),
			CreditIn:  link.NewCredit(testLinkLat),
			CtrlOut:   link.NewCtrl(testLinkLat),
			CtrlIn:    link.NewCtrl(testLinkLat),
		}
	}
	h.wires.Tally(&h.inbox)
	h.r = NewSlab(1, cfg).New(mesh.NewTables(), 0, cfg, 1, h.wires, &h.inbox, h.ni, h.ni, nil)
	return h
}

func (h *harness) tick() {
	h.r.Tick(h.now)
	h.now++
}

// recvOut drains the router's output link on d at the current cycle
// (call after tick; arrivals are those sent lat+1 cycles ago).
func (h *harness) recvOut(d topology.Dir) *flit.Flit {
	f, _ := h.wires.Ports[d].Out.Recv(h.now)
	return f
}

func TestWormholeOrderAndSingleVC(t *testing.T) {
	h := newHarness(t)
	h.ni.enqueuePacket(1, flit.VNData, 5, 1) // East
	var got []*flit.Flit
	for c := 0; c < 40 && len(got) < 5; c++ {
		h.tick()
		if f := h.recvOut(topology.East); f != nil {
			got = append(got, f)
			// downstream consumes immediately: return the credit
			h.wires.Ports[topology.East].CreditIn.Send(h.now, link.Credit{VC: f.VC, VN: f.VN})
		}
	}
	if len(got) != 5 {
		t.Fatalf("received %d flits, want 5", len(got))
	}
	vc := got[0].VC
	for i, f := range got {
		if f.Seq != i {
			t.Errorf("flit %d out of order (seq %d)", i, f.Seq)
		}
		if f.VC != vc {
			t.Errorf("flit %d changed VC %d -> %d (wormhole violation)", i, vc, f.VC)
		}
	}
	// Back-to-back body flits: one per cycle once streaming.
}

func TestEjectionAtLocalPort(t *testing.T) {
	h := newHarness(t)
	// A packet arriving on East destined for node 0 must be delivered.
	p := flit.Packet{ID: 9, Src: 1, Dst: 0, VN: flit.VNReq, Len: 1}
	fl := p.Flits()[0]
	fl.VC = 0
	h.wires.Ports[topology.East].In.Send(h.now, fl)
	for c := 0; c < 10 && len(h.ni.delivered) == 0; c++ {
		h.tick()
	}
	if len(h.ni.delivered) != 1 || h.ni.delivered[0].PacketID != 9 {
		t.Fatalf("delivered = %v", h.ni.delivered)
	}
}

// TestCreditStall: with no credits returned, at most BufDepth flits of a
// packet may be sent on one VC; the stream resumes when credits return.
func TestCreditStall(t *testing.T) {
	h := newHarness(t)
	depth := config.Default().Baseline.BufDepth
	h.ni.enqueuePacket(1, flit.VNData, flit.DataPacketFlits, 1)
	sent := 0
	dataVC := -1
	for c := 0; c < 100; c++ {
		h.tick()
		if f := h.recvOut(topology.East); f != nil {
			sent++
			dataVC = f.VC
		}
	}
	if sent != depth {
		t.Fatalf("sent %d flits with no credits, want exactly buffer depth %d", sent, depth)
	}
	// Return one credit on the packet's VC: exactly one more flit flows.
	h.wires.Ports[topology.East].CreditIn.Send(h.now, link.Credit{VC: dataVC, VN: flit.VNData})
	more := 0
	for c := 0; c < 20; c++ {
		h.tick()
		if f := h.recvOut(topology.East); f != nil {
			more++
			_ = f
		}
	}
	if more > 1 {
		t.Fatalf("one credit released %d flits", more)
	}
}

// TestVCsAllowBypass: a packet blocked in one input VC (its output is out
// of credits) must not prevent a packet in another VC of the same input
// port from proceeding — VCs exist precisely to cut this HOL blocking.
func TestVCsAllowBypass(t *testing.T) {
	h := newHarness(t)
	// Packet A: data flits arriving on East input VC 4, routed South,
	// where we never return credits, so it stalls after BufDepth flits.
	mkA := func(seq int) *flit.Flit {
		f := &flit.Flit{PacketID: 1, Seq: seq, Len: flit.DataPacketFlits,
			Src: 1, Dst: 2, VN: flit.VNData, VC: 4}
		return f
	}
	sentA := 0
	creditsA := config.Default().Baseline.BufDepth // our input VC's capacity
	for c := 0; c < 60; c++ {
		if sentA < flit.DataPacketFlits && creditsA > 0 &&
			h.wires.Ports[topology.East].In.CanSend(h.now) {
			h.wires.Ports[topology.East].In.Send(h.now, mkA(sentA))
			sentA++
			creditsA--
		}
		h.tick()
		if _, ok := h.wires.Ports[topology.East].CreditOut.Recv(h.now); ok {
			creditsA++
		}
		h.recvOut(topology.South)
	}
	if h.r.BufferedFlits() == 0 {
		t.Fatal("packet A did not stall in the input buffer")
	}
	// Packet B: a single-flit data packet on East input VC 5, destined
	// locally; it must eject despite A's stall on the same input port.
	fb := &flit.Flit{PacketID: 2, Seq: 0, Len: 1, Src: 1, Dst: 0, VN: flit.VNData, VC: 5}
	h.wires.Ports[topology.East].In.Send(h.now, fb)
	for c := 0; c < 10 && len(h.ni.delivered) == 0; c++ {
		h.tick()
	}
	if len(h.ni.delivered) != 1 || h.ni.delivered[0].PacketID != 2 {
		t.Fatalf("packet B blocked behind stalled packet A: delivered %v", h.ni.delivered)
	}
}

// TestDistinctPacketsDistinctVCs: two concurrently injected data packets
// must not share an output VC while the first is unfinished (rule R1).
func TestDistinctPacketsDistinctVCs(t *testing.T) {
	h := newHarness(t)
	h.ni.enqueuePacket(1, flit.VNData, 4, 1)
	h.ni.enqueuePacket(1, flit.VNData, 4, 2)
	vcOf := map[uint64]int{}
	countByPkt := map[uint64]int{}
	for c := 0; c < 80 && (countByPkt[1] < 4 || countByPkt[2] < 4); c++ {
		h.tick()
		if f := h.recvOut(topology.East); f != nil {
			if prev, ok := vcOf[f.PacketID]; ok && prev != f.VC {
				t.Fatalf("packet %d switched VC %d -> %d", f.PacketID, prev, f.VC)
			}
			vcOf[f.PacketID] = f.VC
			countByPkt[f.PacketID]++
			h.wires.Ports[topology.East].CreditIn.Send(h.now, link.Credit{VC: f.VC, VN: f.VN})
			// While both packets are in flight they must use different VCs.
			if countByPkt[1] > 0 && countByPkt[1] < 4 && countByPkt[2] > 0 && countByPkt[2] < 4 {
				if vcOf[1] == vcOf[2] {
					t.Fatalf("concurrent packets share VC %d", vcOf[1])
				}
			}
		}
	}
	if countByPkt[1] != 4 || countByPkt[2] != 4 {
		t.Fatalf("flit counts: %v", countByPkt)
	}
}

// TestCreditConservationUnderRandomTraffic stresses a single router with
// random arrivals and random downstream credit returns, relying on the
// router's internal panics (overflow, negative credits) as the invariant
// oracle, and then checks end-to-end flit conservation.
func TestCreditConservationUnderRandomTraffic(t *testing.T) {
	h := newHarness(t)
	rng := rand.New(rand.NewSource(11))
	depth := config.Default().Baseline.BufDepth

	type down struct {
		held []link.Credit
	}
	downs := map[topology.Dir]*down{topology.East: {}, topology.South: {}}

	injected, received := 0, 0
	pid := uint64(100)
	upVC := 0 // upstream-assigned input VC for arrivals on East (control vn0: VCs 0..1)
	inFlightIn := 0
	for c := 0; c < 3000; c++ {
		// Random injection of packets.
		if rng.Float64() < 0.15 {
			dst := topology.NodeID(1)
			if rng.Intn(2) == 1 {
				dst = 2
			}
			vn := flit.VN(rng.Intn(int(flit.NumVNs)))
			l := flit.LenForVN(vn)
			h.ni.enqueuePacket(dst, vn, l, pid)
			pid++
			injected += l
		}
		// Random arrival on East destined for local (uses upstream VC 0/1
		// alternately; real upstreams guarantee non-interleaving, and
		// single-flit packets cannot interleave).
		if rng.Float64() < 0.2 && inFlightIn < depth {
			p := flit.Packet{ID: pid, Src: 1, Dst: 0, VN: flit.VNReq, Len: 1}
			pid++
			fl := p.Flits()[0]
			fl.VC = upVC
			upVC = 1 - upVC
			if h.wires.Ports[topology.East].In.CanSend(h.now) {
				h.wires.Ports[topology.East].In.Send(h.now, fl)
				inFlightIn++
			}
		}
		h.tick()
		// Credits returned by our router for consumed arrivals.
		if _, ok := h.wires.Ports[topology.East].CreditOut.Recv(h.now); ok {
			inFlightIn--
		}
		h.wires.Ports[topology.South].CreditOut.Recv(h.now)
		// Downstream consumption with random delays.
		for _, d := range []topology.Dir{topology.East, topology.South} {
			if f := h.recvOut(d); f != nil {
				received++
				downs[d].held = append(downs[d].held, link.Credit{VC: f.VC, VN: f.VN})
			}
			dw := downs[d]
			if len(dw.held) > 0 && rng.Float64() < 0.3 && h.wires.Ports[d].CreditIn.CanSend(h.now) {
				h.wires.Ports[d].CreditIn.Send(h.now, dw.held[0])
				dw.held = dw.held[1:]
			}
		}
	}
	if received == 0 || len(h.ni.delivered) == 0 {
		t.Fatal("stress test moved no traffic")
	}
	if h.r.BufferedFlits() > 3*depth {
		t.Errorf("suspiciously high buffer occupancy: %d", h.r.BufferedFlits())
	}
}

// TestSingleFlitPacketsHoldTheirVC (rule R2): a single-flit packet that
// has allocated an output VC but not yet won the switch must keep the VC
// busy, so no concurrent packet can be handed the same VC.
func TestSingleFlitPacketsHoldTheirVC(t *testing.T) {
	h := newHarness(t)
	// Exhaust East data credits so an allocated single-flit packet stalls.
	h.ni.enqueuePacket(1, flit.VNData, 1, 1)
	busyCount := func() int {
		n := 0
		for v := 0; v < 8; v++ {
			if h.r.out[topology.East][v].busy {
				n++
			}
		}
		return n
	}
	// Starve: never return credits; after a few cycles the packet has
	// allocated a VC and is waiting — the VC must read busy.
	for c := 0; c < 6; c++ {
		h.tick()
		h.recvOut(topology.East)
	}
	// The flit was sent immediately (credits start full), so instead test
	// the stall case with a second packet after credits are gone.
	for i := uint64(2); i < 12; i++ {
		h.ni.enqueuePacket(1, flit.VNData, 1, i)
	}
	for c := 0; c < 60; c++ {
		h.tick()
		h.recvOut(topology.East)
	}
	// Credits exhausted (8 sent, 2 allocated-but-stalled at most). At
	// least one VC must be held busy by a stalled single-flit packet.
	if busyCount() == 0 && h.r.BufferedFlits() > 0 {
		t.Fatal("stalled single-flit packet does not hold its output VC busy")
	}
}

// TestRealisticVCAAddsOneStage: with RealisticVCA, the per-hop latency of
// a head flit grows by exactly one cycle (the 3-stage pipeline of
// Section II's realistic backpressured router).
func TestRealisticVCAAddsOneStage(t *testing.T) {
	mk := func(realistic bool) uint64 {
		cfg := config.Default().Baseline
		cfg.RealisticVCA = realistic
		h := newHarnessWith(t, cfg)
		h.ni.enqueuePacket(1, flit.VNReq, 1, 1)
		for c := uint64(0); c < 30; c++ {
			h.tick()
			if f := h.recvOut(topology.East); f != nil {
				return h.now // cycle after the arrival at the link tail
			}
		}
		t.Fatal("flit never emerged")
		return 0
	}
	ideal := mk(false)
	realistic := mk(true)
	if realistic != ideal+1 {
		t.Fatalf("realistic VCA adds %d cycles, want exactly 1 (ideal %d, realistic %d)",
			realistic-ideal, ideal, realistic)
	}
}

package core

import (
	"math/rand"
	"testing"

	"afcnet/internal/config"
	"afcnet/internal/flit"
	"afcnet/internal/link"
	"afcnet/internal/router"
	"afcnet/internal/topology"
)

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

const testLinkLat = 2 // L; data links are L+1

type harness struct {
	r     *Router
	ni    *fakeNI
	now   uint64
	wires router.Wires
	inbox [3]int32
	mesh  topology.Mesh
	node  topology.NodeID

	// ctrlSeen logs mode notifications the router emitted (drained every
	// cycle: pipes require per-cycle polling like real latched wires).
	ctrlSeen []link.Ctrl
	// creditsSeen counts per-port credits the router returned upstream.
	creditsSeen [topology.NumDirs]int
	// up models the upstream neighbors' credit tracking, exactly as an
	// adjacent AFC router would behave (Sections III-B/III-D).
	up     [topology.NumDirs]upstream
	synced bool
}

type upstream struct {
	tracking bool
	credits  [flit.NumVNs]int
}

func newHarness(t *testing.T, node topology.NodeID, opts Options) *harness {
	t.Helper()
	mesh := topology.NewMesh(3, 3)
	h := &harness{ni: &fakeNI{}, mesh: mesh, node: node}
	for d := topology.Dir(0); d < topology.NumDirs; d++ {
		if _, ok := mesh.Neighbor(node, d); !ok {
			continue
		}
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
	cfg := config.Default()
	h.r = NewSlab(1, cfg.AFC, cfg.LinkLatency).New(mesh.NewTables(), node, cfg.AFC, cfg.LinkLatency, cfg.EjectWidth,
		rand.New(rand.NewSource(13)), h.wires, &h.inbox, h.ni, h.ni, nil, opts)
	return h
}

// syncIncoming applies this cycle's arriving credit backflow and mode
// notifications to the upstream model. A real neighbor router processes
// them at the start of its cycle, before it sends — so the harness must
// too, or it would send one uncredited flit in the announcement cycle.
func (h *harness) syncIncoming() {
	if h.synced {
		return
	}
	h.synced = true
	for d := topology.Dir(0); d < topology.NumDirs; d++ {
		if h.wires.Ports[d].CtrlOut != nil {
			if c, ok := h.wires.Ports[d].CtrlOut.Recv(h.now); ok {
				h.ctrlSeen = append(h.ctrlSeen, c)
				switch c {
				case link.CtrlStartCredits:
					h.up[d] = upstream{tracking: true, credits: config.Default().AFC.VCsPerVN}
				case link.CtrlStopCredits:
					h.up[d] = upstream{}
				}
			}
		}
		if h.wires.Ports[d].CreditOut != nil {
			if c, ok := h.wires.Ports[d].CreditOut.Recv(h.now); ok {
				h.creditsSeen[d]++
				if h.up[d].tracking {
					h.up[d].credits[c.VN]++
				}
			}
		}
	}
}

func (h *harness) tick() {
	h.syncIncoming()
	h.r.Tick(h.now)
	h.now++
	h.synced = false
}

// trySend delivers f into the router on port d, honoring the upstream
// credit protocol. It reports whether the flit was sent.
func (h *harness) trySend(d topology.Dir, f *flit.Flit) bool {
	h.syncIncoming()
	pl := h.wires.Ports[d]
	if pl.In == nil || !pl.In.CanSend(h.now) {
		return false
	}
	if h.up[d].tracking {
		if h.up[d].credits[f.VN] <= 0 {
			return false
		}
		h.up[d].credits[f.VN]--
	}
	pl.In.Send(h.now, f)
	return true
}

func (h *harness) recvAll() []*flit.Flit {
	var out []*flit.Flit
	for d := topology.Dir(0); d < topology.NumDirs; d++ {
		if h.wires.Ports[d].Out == nil {
			continue
		}
		if f, ok := h.wires.Ports[d].Out.Recv(h.now); ok {
			out = append(out, f)
		}
	}
	return out
}

// takeCtrl returns and clears the logged mode notifications.
func (h *harness) takeCtrl() []link.Ctrl {
	out := h.ctrlSeen
	h.ctrlSeen = nil
	return out
}

func mk(id uint64, src, dst topology.NodeID, vn flit.VN) *flit.Flit {
	return &flit.Flit{PacketID: id, Len: 1, Src: src, Dst: dst, VN: vn, VC: flit.NoVC}
}

func TestStartsInBlessMode(t *testing.T) {
	h := newHarness(t, 4, Options{})
	if h.r.Mode() != ModeBless {
		t.Fatalf("initial mode = %s", h.r.Mode())
	}
	a := newHarness(t, 4, Options{AlwaysBuffered: true})
	if a.r.Mode() != ModeBuffered {
		t.Fatalf("always-buffered initial mode = %s", a.r.Mode())
	}
}

// feedLoad pumps one flit into every input port per cycle, collecting and
// discarding output, to drive the traffic-intensity monitor up.
func (h *harness) feedLoad(cycles int, dst topology.NodeID) {
	for c := 0; c < cycles; c++ {
		for d := topology.Dir(0); d < topology.NumDirs; d++ {
			h.trySend(d, mk(uint64(h.now)*8+uint64(d), 0, dst, flit.VNReq))
		}
		h.tick()
		h.recvAll()
	}
}

// TestForwardSwitchOnThreshold: sustained high load drives the EWMA over
// the high threshold and the router switches to backpressured mode,
// notifying neighbors to start counting credits.
func TestForwardSwitchOnThreshold(t *testing.T) {
	h := newHarness(t, 4, Options{})
	sawStart := false
	for c := 0; c < 3000 && h.r.Mode() != ModeBuffered; c++ {
		for d := topology.Dir(0); d < topology.NumDirs; d++ {
			h.trySend(d, mk(uint64(h.now)*8+uint64(d), 0, 0, flit.VNReq))
		}
		h.tick()
		h.recvAll()
	}
	for _, ctrl := range h.takeCtrl() {
		if ctrl == link.CtrlStartCredits {
			sawStart = true
		}
	}
	if h.r.Mode() != ModeBuffered {
		t.Fatalf("router never switched (intensity %.2f)", h.r.Intensity())
	}
	if !sawStart {
		t.Fatal("no start-credits notification observed")
	}
	if h.r.ForwardSwitches() != 1 {
		t.Fatalf("forward switches = %d", h.r.ForwardSwitches())
	}
	if h.r.Intensity() <= config.Default().AFC.ThresholdsByPosition[topology.Center].High {
		t.Errorf("switched below the high threshold: %.2f", h.r.Intensity())
	}
}

// TestForwardSwitchWindowTiming: flits arriving during the 2L switch
// window are still deflected; arrivals from T+2L+1 are buffered.
func TestForwardSwitchWindowTiming(t *testing.T) {
	h := newHarness(t, 4, Options{})
	// Drive to switching.
	for c := 0; c < 3000 && h.r.Mode() == ModeBless; c++ {
		for d := topology.Dir(0); d < topology.NumDirs; d++ {
			h.trySend(d, mk(uint64(h.now)*8+uint64(d), 0, 0, flit.VNReq))
		}
		h.tick()
		h.recvAll()
	}
	if h.r.Mode() != ModeSwitching {
		t.Fatalf("mode = %s, want switching", h.r.Mode())
	}
	// During the window the router must still dispatch every arrival
	// (backpressureless operation) — its SRAM buffers stay empty of
	// network flits that arrived before the boundary.
	bufferedAtBoundary := -1
	for c := 0; c < 2*testLinkLat+2; c++ {
		if h.r.Mode() == ModeSwitching && h.r.BufferedFlits() > int(h.r.EscapeEvents()) {
			t.Fatalf("SRAM buffered %d flits during the switch window", h.r.BufferedFlits())
		}
		h.tick()
		h.recvAll()
		if h.r.Mode() == ModeBuffered && bufferedAtBoundary < 0 {
			bufferedAtBoundary = c
		}
	}
	if h.r.Mode() != ModeBuffered {
		t.Fatal("switch window did not complete")
	}
}

// TestReverseSwitchWhenIdle: after load stops, the EWMA decays below the
// low threshold, buffers drain, and the router returns to
// backpressureless mode with a stop-credits notification.
func TestReverseSwitchWhenIdle(t *testing.T) {
	h := newHarness(t, 4, Options{})
	// Force buffered mode first.
	for c := 0; c < 3000 && h.r.Mode() != ModeBuffered; c++ {
		for d := topology.Dir(0); d < topology.NumDirs; d++ {
			h.trySend(d, mk(uint64(h.now)*8+uint64(d), 0, 0, flit.VNReq))
		}
		h.tick()
		h.recvAll()
	}
	if h.r.Mode() != ModeBuffered {
		t.Fatal("precondition failed: not buffered")
	}
	// Idle: no arrivals. EWMA (0.99) needs a few hundred cycles to decay.
	sawStop := false
	for c := 0; c < 3000 && h.r.Mode() != ModeBless; c++ {
		h.tick()
		h.recvAll()
	}
	for c := 0; c < 2*testLinkLat; c++ {
		h.tick() // let the in-flight notifications land
	}
	for _, ctrl := range h.takeCtrl() {
		if ctrl == link.CtrlStopCredits {
			sawStop = true
		}
	}
	if h.r.Mode() != ModeBless {
		t.Fatalf("router never reverted (intensity %.3f, buffered %d)",
			h.r.Intensity(), h.r.BufferedFlits())
	}
	if !sawStop {
		t.Fatal("no stop-credits notification observed")
	}
	if h.r.BufferedFlits() != 0 {
		t.Fatal("reverse switch with non-empty buffers")
	}
	if h.r.ReverseSwitches() != 1 {
		t.Fatalf("reverse switches = %d", h.r.ReverseSwitches())
	}
}

// TestHysteresis: between the low and high thresholds the router holds
// its mode. We verify the monitor must fall below Low (not merely below
// High) before the reverse switch happens.
func TestHysteresis(t *testing.T) {
	h := newHarness(t, 4, Options{})
	for c := 0; c < 3000 && h.r.Mode() != ModeBuffered; c++ {
		for d := topology.Dir(0); d < topology.NumDirs; d++ {
			h.trySend(d, mk(uint64(h.now)*8+uint64(d), 0, 0, flit.VNReq))
		}
		h.tick()
		h.recvAll()
	}
	th := config.Default().AFC.ThresholdsByPosition[topology.Center]
	// Hold the load at ~2 flits/cycle with crossing streams (East->West
	// and West->East, distinct output ports): below High (2.2), above
	// Low (1.7).
	for c := 0; c < 2000; c++ {
		h.trySend(topology.East, mk(uint64(h.now)*8, 5, 3, flit.VNReq))
		h.trySend(topology.West, mk(uint64(h.now)*8+1, 3, 5, flit.VNReq))
		h.tick()
		h.recvAll()
	}
	if got := h.r.Intensity(); got >= th.High || got <= th.Low {
		t.Fatalf("test load %.2f not inside hysteresis band (%.1f, %.1f)", got, th.Low, th.High)
	}
	if h.r.Mode() != ModeBuffered {
		t.Fatalf("router left buffered mode inside the hysteresis band (mode %s)", h.r.Mode())
	}
}

// TestLazyVCAllocation: in buffered mode, departing flits carry no VC
// (downstream assigns) and arriving flits receive a slot in their VN
// segment.
func TestLazyVCAllocation(t *testing.T) {
	h := newHarness(t, 4, Options{AlwaysBuffered: true})
	// Two data flits and a control flit arriving on West, routed East.
	// The always-buffered router announces tracking at construction;
	// prime the harness model to match.
	h.up[topology.West] = upstream{tracking: true, credits: config.Default().AFC.VCsPerVN}
	fs := []*flit.Flit{
		mk(1, 3, 5, flit.VNData), mk(2, 3, 5, flit.VNData), mk(3, 3, 5, flit.VNReq),
	}
	sent := 0
	var got []*flit.Flit
	for c := 0; c < 30; c++ {
		if sent < len(fs) && h.trySend(topology.West, fs[sent]) {
			sent++
		}
		h.tick()
		got = append(got, h.recvAll()...)
	}
	if len(got) != 3 {
		t.Fatalf("forwarded %d flits, want 3", len(got))
	}
	for _, f := range got {
		if f.VC != flit.NoVC {
			t.Errorf("flit %d departed with VC %d; lazy allocation sends NoVC", f.PacketID, f.VC)
		}
	}
}

// TestPerVNCreditStall: with a tracked downstream whose data VN is
// exhausted, data flits stall but control flits keep flowing.
func TestPerVNCreditStall(t *testing.T) {
	h := newHarness(t, 4, Options{AlwaysBuffered: true})
	cfg := config.Default().AFC
	// Exhaust East's data credits: feed data flits routed East and never
	// return credits.
	h.up[topology.West] = upstream{tracking: true, credits: config.Default().AFC.VCsPerVN}
	dataSent := 0
	for c := 0; c < 200; c++ {
		if h.trySend(topology.West, mk(uint64(100+c), 3, 5, flit.VNData)) {
			_ = c
		}
		h.tick()
		for _, f := range h.recvAll() {
			if f.VN == flit.VNData {
				dataSent++
			}
		}
	}
	if dataSent != cfg.VCsPerVN[flit.VNData] {
		t.Fatalf("sent %d data flits without credits, want %d", dataSent, cfg.VCsPerVN[flit.VNData])
	}
	// Control flits must still flow East.
	ctrlGot := 0
	for c := 0; c < 30; c++ {
		if h.trySend(topology.West, mk(uint64(500+c), 3, 5, flit.VNReq)) {
			_ = c
		}
		h.tick()
		for _, f := range h.recvAll() {
			if f.VN == flit.VNReq {
				ctrlGot++
			}
		}
	}
	if ctrlGot == 0 {
		t.Fatal("control traffic blocked by exhausted data VN (per-VN credits broken)")
	}
}

// TestGossipInducedSwitch: a backpressureless router tracking a
// backpressured neighbor must force-switch once that neighbor's free
// buffers fall below the watermark X.
func TestGossipInducedSwitch(t *testing.T) {
	h := newHarness(t, 4, Options{})
	if h.r.Mode() != ModeBless {
		t.Fatal("not bless")
	}
	// The East neighbor announces backpressured mode.
	h.wires.Ports[topology.East].CtrlIn.Send(h.now, link.CtrlStartCredits)
	for c := 0; c < testLinkLat+1; c++ {
		h.tick()
		h.recvAll()
	}
	if _, tracking := h.r.Credits(topology.East, flit.VNReq); !tracking {
		t.Fatal("router did not start tracking the announced neighbor")
	}
	// Feed a trickle of East-bound control flits (low intensity so the
	// threshold path cannot fire first); never return credits.
	cfg := config.Default().AFC
	for c := 0; c < 200 && h.r.Mode() == ModeBless; c++ {
		if c%4 == 0 {
			h.trySend(topology.West, mk(uint64(c), 3, 5, flit.VNReq))
		}
		h.tick()
		h.recvAll()
	}
	if h.r.GossipSwitches() != 1 {
		t.Fatalf("gossip switches = %d (mode %s)", h.r.GossipSwitches(), h.r.Mode())
	}
	cr, _ := h.r.Credits(topology.East, flit.VNReq)
	if cr >= cfg.GossipFreeSlots {
		t.Errorf("switched with %d free credits, watermark %d", cr, cfg.GossipFreeSlots)
	}
	if h.r.Intensity() > cfg.ThresholdsByPosition[topology.Center].High {
		t.Error("intensity crossed the high threshold; gossip not isolated")
	}
}

// TestBlessDeflectsAwayFromCreditlessNeighbor: in bless mode, an output
// masked by zero credits is avoided by deflection, not overrun.
func TestBlessDeflectsAwayFromCreditlessNeighbor(t *testing.T) {
	h := newHarness(t, 4, Options{})
	h.wires.Ports[topology.East].CtrlIn.Send(h.now, link.CtrlStartCredits)
	for c := 0; c < testLinkLat+1; c++ {
		h.tick()
	}
	// Exhaust East's control-VN credits.
	cfg := config.Default().AFC
	eastSent := 0
	elsewhere := 0
	for c := 0; c < 400; c++ {
		if c%3 == 0 {
			h.trySend(topology.West, mk(uint64(c), 3, 5, flit.VNReq))
		}
		h.tick()
		for d := topology.Dir(0); d < topology.NumDirs; d++ {
			if h.wires.Ports[d].Out == nil {
				continue
			}
			if f, ok := h.wires.Ports[d].Out.Recv(h.now); ok && f != nil {
				if d == topology.East {
					eastSent++
				} else {
					elsewhere++
				}
			}
		}
	}
	if eastSent > cfg.VCsPerVN[flit.VNReq] {
		t.Fatalf("sent %d flits into a creditless neighbor (capacity %d)",
			eastSent, cfg.VCsPerVN[flit.VNReq])
	}
	if elsewhere == 0 {
		t.Fatal("no flits deflected away from the masked output")
	}
}

// TestAlwaysBufferedNeverSwitches: the AFC-always-backpressured
// configuration must stay buffered under any load.
func TestAlwaysBufferedNeverSwitches(t *testing.T) {
	h := newHarness(t, 4, Options{AlwaysBuffered: true})
	for c := 0; c < 500; c++ {
		h.tick()
		h.recvAll()
	}
	if h.r.Mode() != ModeBuffered || h.r.ReverseSwitches() != 0 {
		t.Fatalf("always-buffered router switched: mode %s", h.r.Mode())
	}
	if ctrl := h.takeCtrl(); len(ctrl) != 0 {
		t.Fatal("always-buffered router sent mode notifications")
	}
}

// TestNoFlitLossAcrossModeSwitches subjects a router to bursts and idle
// periods (forcing both switch directions) and checks conservation.
func TestNoFlitLossAcrossModeSwitches(t *testing.T) {
	h := newHarness(t, 4, Options{})
	rng := rand.New(rand.NewSource(21))
	sent, received := 0, 0
	burst := true
	for phase := 0; phase < 6; phase++ {
		cycles := 400
		for c := 0; c < cycles; c++ {
			if burst {
				for d := topology.Dir(0); d < topology.NumDirs; d++ {
					if rng.Float64() < 0.9 {
						dst := topology.NodeID(rng.Intn(9))
						if dst == 4 {
							dst = 0
						}
						if h.trySend(d, mk(uint64(sent), 0, dst, flit.VNReq)) {
							sent++
						}
					}
				}
			}
			h.tick()
			received += len(h.recvAll())
		}
		burst = !burst
	}
	// Drain.
	for c := 0; c < 200; c++ {
		h.tick()
		received += len(h.recvAll())
	}
	received += len(h.ni.delivered)
	if received != sent {
		t.Fatalf("flit loss across mode switches: in %d, out %d (mode %s, buffered %d, latched %d)",
			sent, received, h.r.Mode(), h.r.BufferedFlits(), h.r.LatchedFlits())
	}
	if h.r.ForwardSwitches() == 0 || h.r.ReverseSwitches() == 0 {
		t.Errorf("burst/idle pattern did not exercise both switches: fwd=%d rev=%d",
			h.r.ForwardSwitches(), h.r.ReverseSwitches())
	}
}

// TestPositionScaledThresholds: corner routers have lower thresholds than
// center routers (Section III-B: thresholds scale with port count), so
// under the same absolute load a corner router switches while a center
// router may not. We verify the corner router's forward switch happens at
// an intensity at or below the corner threshold band.
func TestPositionScaledThresholds(t *testing.T) {
	cfg := config.Default().AFC
	corner := cfg.ThresholdsByPosition[topology.Corner]
	center := cfg.ThresholdsByPosition[topology.Center]
	if corner.High >= center.High || corner.Low >= center.Low {
		t.Fatalf("corner thresholds %+v not below center %+v", corner, center)
	}
	// Drive a corner router (node 0: East+South ports only) with a load
	// between the corner and center high thresholds (~2.0): it must
	// switch even though a center router would not.
	h := newHarness(t, 0, Options{})
	for c := 0; c < 3000 && h.r.Mode() == ModeBless; c++ {
		h.trySend(topology.East, mk(uint64(c)*2, 8, 8, flit.VNReq))
		h.trySend(topology.South, mk(uint64(c)*2+1, 8, 8, flit.VNReq))
		h.tick()
		h.recvAll()
	}
	if h.r.Mode() == ModeBless {
		t.Fatalf("corner router never switched at intensity %.2f (threshold %.2f)",
			h.r.Intensity(), corner.High)
	}
}

// TestEscapeLatchDrainPriority: escape-latch flits drain ahead of regular
// slots in backpressured mode and are not lost.
func TestEscapeLatchDrainPriority(t *testing.T) {
	h := newHarness(t, 4, Options{})
	// Make East's control VN creditless so a West->East flit has only
	// masked/taken outputs left when the others are occupied.
	h.wires.Ports[topology.East].CtrlIn.Send(h.now, link.CtrlStartCredits)
	h.wires.Ports[topology.North].CtrlIn.Send(h.now, link.CtrlStartCredits)
	h.wires.Ports[topology.South].CtrlIn.Send(h.now, link.CtrlStartCredits)
	h.wires.Ports[topology.West].CtrlIn.Send(h.now, link.CtrlStartCredits)
	for c := 0; c < testLinkLat+1; c++ {
		h.tick()
	}
	// The downstream neighbors we emulate hold received flits and return
	// credits only when they "consume" them — first never (exhaust
	// phase), then one per cycle (drain phase).
	var owed [topology.NumDirs][flit.NumVNs]int
	recvTracked := func() {
		for d := topology.Dir(0); d < topology.NumDirs; d++ {
			if h.wires.Ports[d].Out == nil {
				continue
			}
			if f, ok := h.wires.Ports[d].Out.Recv(h.now); ok {
				owed[d][f.VN]++
			}
		}
	}
	for c := 0; c < 600; c++ {
		h.trySend(topology.West, mk(uint64(9000+c), 3, 5, flit.VNReq))  // East-bound
		h.trySend(topology.East, mk(uint64(12000+c), 5, 3, flit.VNReq)) // West-bound
		h.trySend(topology.North, mk(uint64(15000+c), 1, 7, flit.VNReq))
		h.trySend(topology.South, mk(uint64(18000+c), 7, 1, flit.VNReq))
		h.tick()
		recvTracked()
	}
	// Whatever path the router took (escape or threshold switch), all
	// accepted flits must eventually depart once the downstream consumes.
	escBefore := h.r.EscapeEvents()
	for c := 0; c < 4000; c++ {
		for d := topology.Dir(0); d < topology.NumDirs; d++ {
			for vn := flit.VN(0); vn < flit.NumVNs; vn++ {
				if owed[d][vn] > 0 && h.wires.Ports[d].CreditIn.CanSend(h.now) {
					h.wires.Ports[d].CreditIn.Send(h.now, link.Credit{VN: vn})
					owed[d][vn]--
					break
				}
			}
		}
		h.tick()
		recvTracked()
	}
	if h.r.BufferedFlits() != 0 {
		t.Fatalf("flits stuck after credits returned: %d (escape events %d)",
			h.r.BufferedFlits(), escBefore)
	}
}

package ni

import (
	"math/rand"
	"testing"
	"testing/quick"

	"afcnet/internal/flit"
	"afcnet/internal/topology"
)

// carve builds an NI for each of nodes the way the network does: carved
// in order from one slab, all packetizing from one shared arena, which
// it returns.
func carve(nodes ...topology.NodeID) ([]*NI, *flit.Arena) {
	a := flit.NewArena()
	s := NewSlab(len(nodes))
	nis := make([]*NI, len(nodes))
	for i, node := range nodes {
		nis[i] = s.New(node)
		nis[i].SetArena(a)
	}
	return nis, a
}

// one returns the NI of node, carved alone.
func one(node topology.NodeID) *NI {
	nis, _ := carve(node)
	return nis[0]
}

// pair returns the NIs of node 1, the source, and node 0, the
// destination, carved from one slab.
func pair() (src, dst *NI) {
	nis, _ := carve(1, 0)
	return nis[0], nis[1]
}

func TestPacketizationAndQueues(t *testing.T) {
	n := one(0)
	n.SendPacket(10, 3, flit.VNData, 4, 77)
	if n.QueuedFlits() != 4 {
		t.Fatalf("queue len = %d, want 4", n.QueuedFlits())
	}
	for i := 0; i < 4; i++ {
		f := n.Pop(flit.VNData)
		if f == nil || f.Seq != i || f.Dst != 3 || f.CreatedAt != 10 || f.Payload != 77 {
			t.Fatalf("flit %d wrong: %v", i, f)
		}
	}
	if n.Pop(flit.VNData) != nil {
		t.Error("pop from empty queue should be nil")
	}
	if n.InjectedFlits() != 4 || n.InjectedPackets() != 1 {
		t.Errorf("injected counts: %d flits, %d packets", n.InjectedFlits(), n.InjectedPackets())
	}
}

func TestQueuesArePerVN(t *testing.T) {
	n := one(2)
	n.SendPacket(0, 0, flit.VNReq, 1, 0)
	n.SendPacket(0, 0, flit.VNData, 2, 0)
	if n.Peek(flit.VNResp) != nil {
		t.Error("VNResp queue should be empty")
	}
	if f := n.Peek(flit.VNReq); f == nil || f.VN != flit.VNReq {
		t.Error("VNReq head missing")
	}
	if f := n.Peek(flit.VNData); f == nil || f.VN != flit.VNData {
		t.Error("VNData head missing")
	}
}

func TestSelfAddressedPanics(t *testing.T) {
	n := one(4)
	defer func() {
		if recover() == nil {
			t.Error("self-addressed packet did not panic")
		}
	}()
	n.SendPacket(0, 4, flit.VNReq, 1, 0)
}

// TestReassemblyAnyOrder is the property deflection routing depends on:
// flits arriving in any permutation reassemble into exactly one delivered
// packet with correct latency accounting.
func TestReassemblyAnyOrder(t *testing.T) {
	f := func(permSeed int64, lenRaw uint8) bool {
		l := int(lenRaw)%20 + 1
		src, dst := pair()
		var got []Delivered
		dst.SetHandler(func(_ uint64, d Delivered) { got = append(got, d) })
		src.SendPacket(100, 0, flit.VNData, l, 5)
		flits := make([]*flit.Flit, 0, l)
		for i := 0; i < l; i++ {
			fl := src.Pop(flit.VNData)
			fl.InjectedAt = 100 + uint64(i)
			flits = append(flits, fl)
		}
		rng := rand.New(rand.NewSource(permSeed))
		rng.Shuffle(len(flits), func(a, b int) { flits[a], flits[b] = flits[b], flits[a] })
		for i, fl := range flits {
			dst.Deliver(200+uint64(i), fl)
		}
		if len(got) != 1 {
			return false
		}
		d := got[0]
		deliveredAt := 200 + uint64(l-1)
		return d.Len == l && d.Src == 1 && d.Payload == 5 &&
			d.TotalLatency == deliveredAt-100 &&
			d.NetLatency == deliveredAt-100 && // first flit injected at 100
			dst.PendingReassembly() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(6))}); err != nil {
		t.Error(err)
	}
}

func TestInterleavedReassembly(t *testing.T) {
	src, dst := pair()
	delivered := 0
	dst.SetHandler(func(_ uint64, d Delivered) { delivered++ })
	src.SendPacket(0, 0, flit.VNData, 3, 0)
	src.SendPacket(0, 0, flit.VNData, 3, 0)
	var a, b []*flit.Flit
	for i := 0; i < 3; i++ {
		a = append(a, src.Pop(flit.VNData))
	}
	for i := 0; i < 3; i++ {
		b = append(b, src.Pop(flit.VNData))
	}
	// interleave across packets, out of order within packets
	order := []*flit.Flit{a[2], b[0], a[0], b[2], b[1], a[1]}
	for i, fl := range order {
		dst.Deliver(uint64(i), fl)
	}
	if delivered != 2 || dst.DeliveredPackets() != 2 {
		t.Errorf("delivered = %d packets", delivered)
	}
}

func TestWrongDestinationPanics(t *testing.T) {
	src, dst := pair()
	src.SendPacket(0, 3, flit.VNReq, 1, 0)
	fl := src.Pop(flit.VNReq)
	defer func() {
		if recover() == nil {
			t.Error("misdelivered flit did not panic")
		}
	}()
	dst.Deliver(5, fl)
}

func TestRetransmitLifecycle(t *testing.T) {
	src, dst := pair()
	src.SetRetain(true)
	id := src.SendPacket(0, 0, flit.VNReq, 1, 0)

	if src.Epoch(id) != 0 {
		t.Fatalf("initial epoch = %d", src.Epoch(id))
	}
	// Deferred while the original copy is still queued.
	if st := src.Retransmit(5, id); st != RetransmitDeferred {
		t.Fatalf("retransmit while queued = %v, want deferred", st)
	}
	f0 := src.Pop(flit.VNReq)
	if st := src.Retransmit(6, id); st != Retransmitted {
		t.Fatalf("retransmit after drain = %v", st)
	}
	if src.Epoch(id) != 1 {
		t.Fatalf("epoch after retransmit = %d", src.Epoch(id))
	}
	f1 := src.Pop(flit.VNReq)
	if f1.Retransmits != 1 {
		t.Fatalf("retransmitted flit epoch = %d", f1.Retransmits)
	}

	// The new copy delivers; the stale original must be discarded.
	dst.SetRetain(true)
	dst.Deliver(10, f1)
	if dst.DeliveredPackets() != 1 {
		t.Fatal("packet not delivered")
	}
	dst.Deliver(11, f0)
	if dst.DeliveredPackets() != 1 {
		t.Error("stale duplicate re-delivered the packet")
	}
	// After delivery + ack, retransmission is a no-op.
	src.ClearRetained(id)
	if src.Epoch(id) != -1 {
		t.Errorf("epoch after clear = %d, want -1", src.Epoch(id))
	}
	if st := src.Retransmit(20, id); st != RetransmitDone {
		t.Errorf("retransmit after delivery = %v", st)
	}
}

func TestStatsAndReset(t *testing.T) {
	src, dst := pair()
	src.SendPacket(0, 0, flit.VNReq, 1, 0)
	fl := src.Pop(flit.VNReq)
	fl.InjectedAt = 2
	dst.Deliver(9, fl)
	if dst.NetLatency().Mean() != 7 {
		t.Errorf("net latency = %g, want 7", dst.NetLatency().Mean())
	}
	if dst.TotalLatency().Mean() != 9 {
		t.Errorf("total latency = %g, want 9", dst.TotalLatency().Mean())
	}
	src.SampleQueues()
	dst.ResetStats()
	src.ResetStats()
	if src.InjectedFlits() != 0 || dst.DeliveredPackets() != 0 || src.MeanQueueLen() != 0 {
		t.Error("ResetStats left residuals")
	}
}

func TestQueueSampling(t *testing.T) {
	n := one(0)
	n.SendPacket(0, 1, flit.VNData, 4, 0)
	n.SampleQueues() // 4 queued
	n.Pop(flit.VNData)
	n.SampleQueues() // 3 queued
	if got := n.MeanQueueLen(); got != 3.5 {
		t.Errorf("mean queue length = %g, want 3.5", got)
	}
}

func TestDeflectionHistogram(t *testing.T) {
	src, dst := pair()
	src.SendPacket(0, 0, flit.VNReq, 1, 0)
	f := src.Pop(flit.VNReq)
	f.Deflections = 7
	dst.Deliver(5, f)
	if dst.Deflections().Max() != 7 {
		t.Errorf("deflection histogram max = %d, want 7", dst.Deflections().Max())
	}
}

// TestBacklogHoldsNoFlits pins packetization at injection: queued
// packets are descriptors until Peek reaches them, so a source backlog
// past saturation holds at most one packet's flits per virtual network.
func TestBacklogHoldsNoFlits(t *testing.T) {
	nis, a := carve(0)
	n := nis[0]
	const packets = 1000
	for i := 0; i < packets; i++ {
		n.SendPacket(uint64(i), 1, flit.VNData, flit.DataPacketFlits, uint64(i))
		n.SendPacket(uint64(i), 2, flit.VNReq, flit.ControlPacketFlits, uint64(i))
	}
	if got, want := n.QueuedFlits(), packets*(flit.DataPacketFlits+flit.ControlPacketFlits); got != want {
		t.Fatalf("queue len = %d flits, want %d", got, want)
	}
	if live := a.Live(); live != 0 {
		t.Fatalf("backlog of %d packets holds %d arena flits before the first Peek, want 0", 2*packets, live)
	}
	for vn := flit.VN(0); vn < flit.NumVNs; vn++ {
		n.Peek(vn)
	}
	const bound = flit.DataPacketFlits + flit.ControlPacketFlits
	if live := a.Live(); live > bound {
		t.Fatalf("after Peek the backlog holds %d arena flits, want at most %d", live, bound)
	}
	for i := 0; i < packets*flit.DataPacketFlits; i++ {
		f := n.Pop(flit.VNData)
		if want := uint64(i / flit.DataPacketFlits); f.Payload != want || f.Seq != i%flit.DataPacketFlits {
			t.Fatalf("pop %d: packet payload %d seq %d, want payload %d seq %d", i, f.Payload, f.Seq, want, i%flit.DataPacketFlits)
		}
		flit.Recycle(f)
		if live := a.Live(); live > bound {
			t.Fatalf("pop %d: %d arena flits live, want at most %d", i, live, bound)
		}
	}
	if n.Peek(flit.VNData) != nil || n.QueuedFlits() != packets {
		t.Fatalf("after draining VNData: head %v, %d flits queued", n.Peek(flit.VNData), n.QueuedFlits())
	}
}

// TestRetransmitInterleavesInOrder: new packets and retransmitted copies
// share one queue per virtual network and pop in the order they were
// enqueued, each flit carrying its copy's epoch; a copy whose tail has
// not popped defers the next retransmission.
func TestRetransmitInterleavesInOrder(t *testing.T) {
	n := one(1)
	n.SetRetain(true)
	// pop takes flits seq from..to-1 of packet id and checks each one's
	// place and epoch.
	pop := func(id uint64, from, to, epoch int) {
		t.Helper()
		for seq := from; seq < to; seq++ {
			f := n.Pop(flit.VNData)
			if f == nil || f.PacketID != id || f.Seq != seq || f.Retransmits != epoch {
				t.Fatalf("popped %v, want packet %#x seq %d epoch %d", f, id, seq, epoch)
			}
		}
	}
	a := n.SendPacket(0, 0, flit.VNData, 3, 0)
	pop(a, 0, 3, 0)
	b := n.SendPacket(1, 0, flit.VNData, 2, 0)
	if st := n.Retransmit(2, a); st != Retransmitted {
		t.Fatalf("retransmit a = %v", st)
	}
	c := n.SendPacket(3, 0, flit.VNData, 1, 0)
	if st := n.Retransmit(4, a); st != RetransmitDeferred {
		t.Fatalf("retransmit a while its copy is queued = %v, want deferred", st)
	}
	pop(b, 0, 2, 0)
	if st := n.Retransmit(5, b); st != Retransmitted {
		t.Fatalf("retransmit b = %v", st)
	}
	pop(a, 0, 2, 1)
	if st := n.Retransmit(6, a); st != RetransmitDeferred {
		t.Fatalf("retransmit a before its tail popped = %v, want deferred", st)
	}
	pop(a, 2, 3, 1)
	if st := n.Retransmit(7, a); st != Retransmitted {
		t.Fatalf("retransmit a after its tail popped = %v", st)
	}
	pop(c, 0, 1, 0)
	pop(b, 0, 2, 1)
	pop(a, 0, 3, 2)
	if n.Epoch(a) != 2 || n.Epoch(b) != 1 || n.Epoch(c) != 0 {
		t.Errorf("epochs a %d b %d c %d, want 2 1 0", n.Epoch(a), n.Epoch(b), n.Epoch(c))
	}
	if n.QueuedFlits() != 0 || n.Peek(flit.VNData) != nil {
		t.Errorf("queue not empty: %d flits", n.QueuedFlits())
	}
}

// TestResetMidPacket: Reset after a partly popped head packet leaves
// every queue empty, and the NI then behaves as freshly built.
func TestResetMidPacket(t *testing.T) {
	n := one(0)
	n.SendPacket(0, 1, flit.VNData, flit.DataPacketFlits, 0)
	n.SendPacket(0, 2, flit.VNData, flit.DataPacketFlits, 0)
	n.SendPacket(0, 3, flit.VNReq, 1, 0)
	for i := 0; i < 3; i++ {
		n.Pop(flit.VNData)
	}
	n.Reset()
	if n.QueuedFlits() != 0 {
		t.Fatalf("queue len %d after Reset", n.QueuedFlits())
	}
	for vn := flit.VN(0); vn < flit.NumVNs; vn++ {
		if f := n.Peek(vn); f != nil {
			t.Fatalf("%v: Peek = %v after Reset", vn, f)
		}
		if f := n.Pop(vn); f != nil {
			t.Fatalf("%v: Pop = %v after Reset", vn, f)
		}
	}
	id := n.SendPacket(5, 1, flit.VNData, 2, 9)
	if id != 1 {
		t.Errorf("first packet after Reset has ID %#x, want 1", id)
	}
	for seq := 0; seq < 2; seq++ {
		if f := n.Pop(flit.VNData); f == nil || f.PacketID != id || f.Seq != seq || f.CreatedAt != 5 {
			t.Fatalf("pop %d after Reset = %v", seq, f)
		}
	}
	if n.Pop(flit.VNData) != nil {
		t.Error("queue not empty after popping the one packet")
	}
}

// TestShardMagazinesConserveFlits: NIs on two shards of one arena, wired
// as a sharded network wires them, packetize through their own shard's
// magazine and recycle delivered flits through theirs, so every packet
// sent from shard 0 to shard 1 moves its flits from one magazine to the
// other. The arena's live count sums the magazines' deltas: it reads a
// packet's flits while they are out and returns to 0 on delivery.
func TestShardMagazinesConserveFlits(t *testing.T) {
	nis, a := carve(0, 1)
	a.SetShards(2)
	for i, n := range nis {
		n.SetArenaShard(a.Shard(i))
	}
	src, dst := nis[0], nis[1]
	delivered := 0
	dst.SetHandler(func(uint64, Delivered) { delivered++ })
	const packets = 100
	pooled := 0
	fs := make([]*flit.Flit, 0, flit.DataPacketFlits)
	for i := 0; i < packets; i++ {
		now := uint64(i)
		src.SendPacket(now, 1, flit.VNData, flit.DataPacketFlits, uint64(i))
		fs = fs[:0]
		for f := src.Pop(flit.VNData); f != nil; f = src.Pop(flit.VNData) {
			f.InjectedAt = now
			fs = append(fs, f)
		}
		switch live := a.Live(); live {
		case flit.DataPacketFlits:
			pooled++
		case 0: // a magazine that finds the reserve dry hands out heap flits
		default:
			t.Fatalf("packet %d: %d flits live while its %d flits are out", i, live, len(fs))
		}
		for _, f := range fs {
			dst.Deliver(now, f)
		}
		if live := a.Live(); live != 0 {
			t.Fatalf("packet %d: %d flits live after delivery, want 0", i, live)
		}
		// The sharded tick's serial phase mints stock for starved
		// magazines.
		a.Reconcile()
	}
	if delivered != packets {
		t.Errorf("delivered %d of %d packets", delivered, packets)
	}
	if pooled == 0 {
		t.Errorf("none of %d packets came from the magazines", packets)
	}
}

// BenchmarkNIPop pops through a standing backlog of data packets the way
// a router injects from a saturated source: each op peeks and pops one
// flit and recycles it, and each popped tail enqueues a replacement
// packet. The steady state allocates nothing (make bench-layers).
func BenchmarkNIPop(b *testing.B) {
	const backlog = 64
	n := one(0)
	for i := 0; i < backlog; i++ {
		n.SendPacket(0, 1, flit.VNData, flit.DataPacketFlits, 0)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if n.Peek(flit.VNData) == nil {
			b.Fatal("backlog ran dry")
		}
		f := n.Pop(flit.VNData)
		if f.Tail() {
			n.SendPacket(uint64(i), 1, flit.VNData, flit.DataPacketFlits, 0)
		}
		flit.Recycle(f)
	}
}

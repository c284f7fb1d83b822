// Package ni implements the network interface at each node: per-virtual-
// network injection queues, packetization of messages into flits as they
// reach the head of their queue, and MSHR-style reassembly of (possibly
// out-of-order) flits back into packets.
//
// Reassembly is receive-side buffering: per the paper it is provisioned by
// MSHRs, is required for backpressured and backpressureless networks
// alike, and is excluded from network energy. The NI therefore always
// accepts ejected flits.
package ni

import (
	"fmt"
	"math"
	"math/bits"

	"afcnet/internal/flit"
	"afcnet/internal/stats"
	"afcnet/internal/topology"
)

// Delivered describes a fully reassembled packet handed to the traffic
// layer.
type Delivered struct {
	ID        uint64
	Src, Dst  topology.NodeID
	VN        flit.VN
	Len       int
	Payload   uint64
	CreatedAt uint64
	// NetLatency is delivery cycle minus first-flit injection cycle.
	NetLatency uint64
	// TotalLatency is delivery cycle minus packet creation cycle
	// (includes source queueing — the saturation signal).
	TotalLatency uint64
}

// Handler consumes delivered packets (the closed-loop CMP substrate
// registers one; open-loop traffic only reads the aggregate stats).
type Handler func(now uint64, d Delivered)

// pending is per-packet reassembly state. It is stored by value and
// tracks received sequence numbers in a bitmask (packets are at most 17
// flits; a slice covers the pathological >64 case), so reassembling a
// packet costs no allocations on the delivery path.
type pending struct {
	got         uint64 // bitmask of received seqs, Len <= 64
	gotBig      []bool // fallback for Len > 64
	received    int
	createdAt   uint64
	firstInject uint64
	src         topology.NodeID
	vn          flit.VN
	length      int
	payload     uint64
}

// mark records seq as received, reporting false for a duplicate.
func (p *pending) mark(seq int) bool {
	if p.gotBig != nil {
		if p.gotBig[seq] {
			return false
		}
		p.gotBig[seq] = true
		return true
	}
	bit := uint64(1) << uint(seq)
	if p.got&bit != 0 {
		return false
	}
	p.got |= bit
	return true
}

// queuedPacket is a packet waiting in a source queue. It stays this
// compact description until Peek reaches it, so a backlog past
// saturation holds no flits; the source node and the virtual network are
// those of the NI and the queue that hold it.
type queuedPacket struct {
	id        uint64
	createdAt uint64
	payload   uint64
	dst       topology.NodeID
	length    int32
	epoch     int32 // transmission epoch, stamped as each flit's Retransmits
}

// packetRing is one virtual network's FIFO of queued packets. Its
// power-of-two buffer doubles when full and keeps its storage across
// Reset.
type packetRing struct {
	buf  []queuedPacket
	head int // index of the oldest packet
	n    int // packets queued
}

func (r *packetRing) push(p queuedPacket) {
	if r.n == len(r.buf) {
		buf := make([]queuedPacket, max(2*len(r.buf), 2))
		k := copy(buf, r.buf[r.head:])
		copy(buf[k:], r.buf[:r.head])
		r.buf, r.head = buf, 0
	}
	r.buf[(r.head+r.n)&(len(r.buf)-1)] = p
	r.n++
}

func (r *packetRing) pop() queuedPacket {
	p := r.buf[r.head]
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
	return p
}

// retention is the source-side state of a packet retained for
// retransmission (drop-based variant): its description with the current
// epoch, its virtual network, and whether that epoch's copy still has
// flits awaiting injection.
type retention struct {
	pkt      queuedPacket
	vn       flit.VN
	awaiting bool
}

// NI is the network interface of one node. It implements
// router.LocalSource and router.LocalSink.
//
// The leading fields are the per-cycle working set (the router's
// Peek/Pop/QueuedFlits calls); NIs are normally
// carved from a Slab in ascending node order so those fields of
// adjacent nodes share cache lines during the housekeeping sweep.
type NI struct {
	node topology.NodeID

	queuedFlits int // total across all VN queues, maintained O(1)
	// head holds each VN's packetized front packet: the flits Pop has not
	// taken yet. backlog holds the packets behind it, not yet packetized.
	head    [flit.NumVNs][]*flit.Flit
	backlog [flit.NumVNs]packetRing

	// arena supplies recycled flit blocks for packetization.
	arena *flit.Arena
	// ashard, on sharded networks, is the allocation magazine of the
	// shard this NI's node belongs to; packetize and recycle go through
	// it (lock-free shard-local fast path) instead of the serial arena
	// entry points. Nil on serial networks. Packetization runs in Peek,
	// so on sharded networks it runs on the router's own shard.
	ashard *flit.ArenaShard

	nextPkt uint64

	reassembly map[uint64]pending
	handler    Handler
	ackHook    Handler // network-internal delivery hook (drop-variant ACKs)
	createHook func(flit.Packet)
	// deliveredHook is an extra per-delivery callback alongside the user
	// handler (the scenario layer records per-phase completion-time
	// samples through it). On sharded runs it fires on a worker
	// goroutine during the parallel phase, so it must only touch
	// per-node state. Cleared by Reset, like the user handler.
	deliveredHook Handler

	// Create-hook deferral for the sharded tick: while *createDeferOn is
	// true (the network's parallel phase), SendPacket hands the packet to
	// createDefer — which journals it shard-locally — instead of invoking
	// the user's createHook inline, because that hook (trace recording)
	// writes state shared across shards. The drain replays the journal in
	// serial node order via InvokeCreateHook. Network-owned wiring, like
	// retain and ackHook, so it survives Reset.
	createDeferOn *bool
	createDefer   func(flit.Packet)

	// retained packets for the drop-based backpressureless variant, and
	// the set of already-delivered packet IDs (so stray duplicate flits
	// from retransmitted copies are discarded instead of re-delivered)
	retain    bool
	retained  map[uint64]retention
	completed map[uint64]struct{}

	// Stats
	injectedFlits    uint64
	injectedPackets  uint64
	createdPackets   uint64
	deliveredFlits   uint64
	deliveredPackets uint64
	netLatency       stats.Summary
	totalLatency     stats.Summary
	deflections      stats.Summary
	queueLenSum      uint64
	queueLenSamples  uint64

	// Lifetime accounting for the invariant checker. Unlike the stats
	// above these survive ResetStats: conservation must hold over the
	// whole run, warmup included.
	totalInjected  uint64 // flits popped into the network
	totalEjected   uint64 // flits the network handed back via Deliver
	totalCompleted uint64 // ejected flits consumed by completed packets
	totalDiscarded uint64 // ejected flits discarded as duplicates/strays
}

// Slab is a contiguous bank of network interfaces, carved in ascending
// node order (matching the network's housekeeping sweep, and band-major
// for the sharded tick's row bands).
type Slab struct {
	nis  []NI
	next int
}

// NewSlab returns a slab with room for count NIs.
func NewSlab(count int) *Slab {
	return &Slab{nis: make([]NI, count)}
}

// New carves the next NI from the slab and initializes it for node. The
// caller attaches its flit arena with SetArena before the first packet.
func (s *Slab) New(node topology.NodeID) *NI {
	if s.next >= len(s.nis) {
		panic("ni: slab exhausted")
	}
	n := &s.nis[s.next]
	s.next++
	n.node = node
	n.reassembly = make(map[uint64]pending)
	n.retained = make(map[uint64]retention)
	n.completed = make(map[uint64]struct{})
	return n
}

// Node returns the node this NI serves.
func (n *NI) Node() topology.NodeID { return n.node }

// SetArena attaches the flit arena used for packetization. The network
// sets it at construction.
func (n *NI) SetArena(a *flit.Arena) { n.arena = a }

// SetArenaShard routes this NI's packetize/recycle traffic through a
// shard-local arena magazine (see flit.ArenaShard). The network sets it
// when building a sharded tick; nil keeps the serial arena paths.
func (n *NI) SetArenaShard(s *flit.ArenaShard) { n.ashard = s }

// packetize expands queued packet q of virtual network vn into flits,
// through the shard magazine when one is attached, through the serial
// arena otherwise, and stamps each flit with q's transmission epoch.
func (n *NI) packetize(vn flit.VN, q queuedPacket) []*flit.Flit {
	p := flit.Packet{
		ID:        q.id,
		Src:       n.node,
		Dst:       q.dst,
		VN:        vn,
		Len:       int(q.length),
		CreatedAt: q.createdAt,
		Payload:   q.payload,
	}
	var fs []*flit.Flit
	if n.ashard != nil {
		fs = n.ashard.Packetize(p)
	} else {
		fs = n.arena.Packetize(p)
	}
	if q.epoch != 0 {
		for _, f := range fs {
			f.Retransmits = int(q.epoch)
		}
	}
	return fs
}

// SetHandler registers the delivered-packet callback.
func (n *NI) SetHandler(h Handler) { n.handler = h }

// SetDeliveredHook registers an additional delivered-packet callback,
// independent of the user handler (see the deliveredHook field for the
// shard-safety contract). Pass nil to clear.
func (n *NI) SetDeliveredHook(h Handler) { n.deliveredHook = h }

// SetAckHook registers a network-internal delivery callback, invoked in
// addition to the user handler. The drop-based variant uses it to ACK the
// source so it stops retransmitting (retention is at the source; delivery
// happens at the destination).
func (n *NI) SetAckHook(h Handler) { n.ackHook = h }

// SetCreateHook registers a callback invoked for every packet handed to
// this NI (trace recording).
func (n *NI) SetCreateHook(h func(flit.Packet)) { n.createHook = h }

// SetCreateDefer wires the sharded-tick deferral of the create hook:
// while *active, packets are journaled through deferFn instead of
// reaching the hook inline. The network owns this wiring.
func (n *NI) SetCreateDefer(active *bool, deferFn func(flit.Packet)) {
	n.createDeferOn = active
	n.createDefer = deferFn
}

// InvokeCreateHook replays a deferred create against the registered
// hook; the network's drain calls it in serial node order. No-op when
// no hook is registered.
func (n *NI) InvokeCreateHook(p flit.Packet) {
	if n.createHook != nil {
		n.createHook(p)
	}
}

// ClearRetained drops the retransmission state of a packet (called on the
// source NI when the destination ACKs delivery).
func (n *NI) ClearRetained(packetID uint64) {
	delete(n.retained, packetID)
}

// SetRetain controls whether packets are retained until delivery for
// retransmission (used by the drop-based backpressureless variant).
func (n *NI) SetRetain(retain bool) { n.retain = retain }

// SendPacket enqueues a packet for injection, returning its ID. length is
// the flit count; vn selects the virtual network. The packet is
// packetized when Peek reaches it.
func (n *NI) SendPacket(now uint64, dst topology.NodeID, vn flit.VN, length int, payload uint64) uint64 {
	if length < 1 || length > math.MaxInt32 {
		panic(fmt.Sprintf("ni: packet length must be in [1, %d], got %d", math.MaxInt32, length))
	}
	if dst == n.node {
		panic("ni: self-addressed packet")
	}
	n.nextPkt++
	q := queuedPacket{
		id:        uint64(n.node)<<40 | n.nextPkt,
		createdAt: now,
		payload:   payload,
		dst:       dst,
		length:    int32(length),
	}
	n.createdPackets++
	if n.createHook != nil {
		p := flit.Packet{
			ID:        q.id,
			Src:       n.node,
			Dst:       dst,
			VN:        vn,
			Len:       length,
			CreatedAt: now,
			Payload:   payload,
		}
		if n.createDeferOn != nil && *n.createDeferOn {
			n.createDefer(p)
		} else {
			n.createHook(p)
		}
	}
	if n.retain {
		n.retained[q.id] = retention{pkt: q, vn: vn, awaiting: true}
	}
	n.enqueue(vn, q)
	return q.id
}

func (n *NI) enqueue(vn flit.VN, q queuedPacket) {
	n.backlog[vn].push(q)
	n.queuedFlits += int(q.length)
}

// RetransmitStatus reports the outcome of a Retransmit call.
type RetransmitStatus uint8

// Retransmit outcomes.
const (
	// RetransmitDone: the packet was already delivered; nothing to do.
	RetransmitDone RetransmitStatus = iota
	// Retransmitted: a fresh copy (new epoch) was enqueued.
	Retransmitted
	// RetransmitDeferred: flits of the current copy are still awaiting
	// injection; the caller must retry later or the packet can stall
	// (its drop NACKs were already consumed).
	RetransmitDeferred
)

// Retransmit re-enqueues a retained packet after a drop NACK, starting a
// new transmission epoch. At most one copy per packet is outstanding: the
// call is deferred while the current copy is still awaiting injection
// (the source holds the packet until the current transmission resolves).
// Retransmitted flits keep the original creation time, so total latency
// reflects the drop penalty.
func (n *NI) Retransmit(now uint64, packetID uint64) RetransmitStatus {
	r, ok := n.retained[packetID]
	if !ok {
		return RetransmitDone
	}
	if r.awaiting {
		return RetransmitDeferred
	}
	r.pkt.epoch++
	r.awaiting = true
	n.retained[packetID] = r
	n.enqueue(r.vn, r.pkt)
	return Retransmitted
}

// Epoch returns the current transmission epoch of a retained packet, or
// -1 once it has been delivered. NACKs carrying an older epoch are stale
// (they refer to flits of a superseded copy) and must be ignored.
func (n *NI) Epoch(packetID uint64) int {
	r, ok := n.retained[packetID]
	if !ok {
		return -1
	}
	return int(r.pkt.epoch)
}

// Peek implements router.LocalSource. The first Peek to reach a queued
// packet packetizes it.
func (n *NI) Peek(vn flit.VN) *flit.Flit {
	if h := n.head[vn]; len(h) > 0 {
		return h[0]
	}
	return n.nextHead(vn)
}

// nextHead packetizes the oldest backlogged packet of vn into its head,
// returning the head flit, or nil when vn's queue is empty.
func (n *NI) nextHead(vn flit.VN) *flit.Flit {
	q := &n.backlog[vn]
	if q.n == 0 {
		return nil
	}
	h := n.packetize(vn, q.pop())
	n.head[vn] = h
	return h[0]
}

// Pop implements router.LocalSource. The popped flit is stamped with its
// injection cycle; callers must only pop flits they immediately inject.
func (n *NI) Pop(vn flit.VN) *flit.Flit {
	f := n.Peek(vn)
	if f == nil {
		return nil
	}
	n.head[vn] = n.head[vn][1:]
	n.queuedFlits--
	if n.retain && f.Tail() {
		// The copy's last flit is out: a NACK may now retransmit it.
		if r, ok := n.retained[f.PacketID]; ok {
			r.awaiting = false
			n.retained[f.PacketID] = r
		}
	}
	n.injectedFlits++
	n.totalInjected++
	if f.Head() {
		n.injectedPackets++
	}
	return f
}

// Deliver implements router.LocalSink: accept an ejected flit, reassemble,
// and hand completed packets to the handler. Ejection consumes the flit —
// reassembly retains only packet metadata — so the flit is recycled to
// the arena on every path out of delivery.
func (n *NI) Deliver(now uint64, f *flit.Flit) {
	n.deliver(now, f)
	if n.ashard != nil {
		n.ashard.Recycle(f)
	} else {
		flit.Recycle(f)
	}
}

func (n *NI) deliver(now uint64, f *flit.Flit) {
	pid := f.PacketID
	if f.Dst != n.node {
		panic(fmt.Sprintf("ni: node %d received flit for %d: %v", n.node, f.Dst, f))
	}
	n.totalEjected++
	if n.retain {
		if _, done := n.completed[pid]; done {
			n.totalDiscarded++
			return // stray flit of a retransmitted, already-delivered packet
		}
	}
	n.deliveredFlits++
	n.deflections.Add(uint64(f.Deflections))
	p, ok := n.reassembly[pid]
	if !ok {
		p = pending{
			createdAt:   f.CreatedAt,
			firstInject: f.InjectedAt,
			src:         f.Src,
			vn:          f.VN,
			length:      f.Len,
			payload:     f.Payload,
		}
		if f.Len > 64 {
			p.gotBig = make([]bool, f.Len)
		}
	}
	if !p.mark(f.Seq) {
		// Duplicate delivery can only happen with retransmission after a
		// partially-delivered drop; ignore the duplicate flit.
		n.totalDiscarded++
		return
	}
	p.received++
	if f.InjectedAt < p.firstInject {
		p.firstInject = f.InjectedAt
	}
	if p.received < p.length {
		n.reassembly[pid] = p
		return
	}
	n.totalCompleted += uint64(p.length)
	delete(n.reassembly, pid)
	if n.retain {
		n.completed[pid] = struct{}{}
	}
	n.deliveredPackets++
	d := Delivered{
		ID:           pid,
		Src:          p.src,
		Dst:          n.node,
		VN:           p.vn,
		Len:          p.length,
		Payload:      p.payload,
		CreatedAt:    p.createdAt,
		NetLatency:   now - p.firstInject,
		TotalLatency: now - p.createdAt,
	}
	n.netLatency.Add(d.NetLatency)
	n.totalLatency.Add(d.TotalLatency)
	if n.deliveredHook != nil {
		n.deliveredHook(now, d)
	}
	if n.ackHook != nil {
		n.ackHook(now, d)
	}
	if n.handler != nil {
		n.handler(now, d)
	}
}

// SampleQueues records the current injection-queue occupancy (called once
// per cycle by the network for average-occupancy stats).
func (n *NI) SampleQueues() {
	n.queueLenSum += uint64(n.queuedFlits)
	n.queueLenSamples++
}

// SampleQueuesIdle records k consecutive empty-queue samples, identical
// to k SampleQueues calls with nothing queued. The active-set kernel
// uses it to fast-forward skipped housekeeping cycles.
func (n *NI) SampleQueuesIdle(k uint64) {
	n.queueLenSamples += k
}

// QueuedFlits implements router.LocalSource: the O(1) total of flits
// waiting for injection across all virtual networks.
func (n *NI) QueuedFlits() int { return n.queuedFlits }

// MeanQueueLen returns the average sampled injection-queue occupancy.
func (n *NI) MeanQueueLen() float64 {
	if n.queueLenSamples == 0 {
		return 0
	}
	return float64(n.queueLenSum) / float64(n.queueLenSamples)
}

// InjectedFlits returns the number of flits injected into the network.
func (n *NI) InjectedFlits() uint64 { return n.injectedFlits }

// InjectedPackets returns the number of packets whose head flit entered
// the network.
func (n *NI) InjectedPackets() uint64 { return n.injectedPackets }

// CreatedPackets returns the number of packets handed to the NI.
func (n *NI) CreatedPackets() uint64 { return n.createdPackets }

// DeliveredPackets returns the number of fully reassembled packets at this
// node.
func (n *NI) DeliveredPackets() uint64 { return n.deliveredPackets }

// DeliveredFlits returns the number of flits ejected at this node.
func (n *NI) DeliveredFlits() uint64 { return n.deliveredFlits }

// PendingReassembly returns how many packets are partially received.
func (n *NI) PendingReassembly() int { return len(n.reassembly) }

// NetLatency summarizes the network latencies (injection to delivery)
// of packets delivered at this node.
func (n *NI) NetLatency() *stats.Summary { return &n.netLatency }

// TotalLatency summarizes the total latencies (creation to delivery,
// source queueing included).
func (n *NI) TotalLatency() *stats.Summary { return &n.totalLatency }

// Deflections summarizes the misroutes of each delivered flit — the
// observable behind the probabilistic livelock-freedom argument
// (Section III-F): the maximum must stay bounded even at high load.
func (n *NI) Deflections() *stats.Summary { return &n.deflections }

// TotalInjectedFlits returns the lifetime count of flits popped into the
// network. Unlike InjectedFlits it is never reset.
func (n *NI) TotalInjectedFlits() uint64 { return n.totalInjected }

// TotalEjectedFlits returns the lifetime count of flits the network
// ejected at this node. Unlike DeliveredFlits it is never reset.
func (n *NI) TotalEjectedFlits() uint64 { return n.totalEjected }

// CheckReassembly verifies the internal consistency of the reassembly
// state: every pending packet's bitmask agrees with its received count,
// no out-of-range sequence bit is set, and the lifetime ejected flits are
// fully accounted as completed, discarded, or still pending. The
// invariant checker calls it; it returns the first inconsistency found.
func (n *NI) CheckReassembly() error {
	var pendingFlits uint64
	for id, p := range n.reassembly {
		if p.received < 1 || p.received >= p.length {
			return fmt.Errorf("packet %#x pending with %d of %d flits", id, p.received, p.length)
		}
		got := 0
		if p.gotBig != nil {
			for _, b := range p.gotBig {
				if b {
					got++
				}
			}
		} else {
			got = bits.OnesCount64(p.got)
			if p.length < 64 && p.got>>uint(p.length) != 0 {
				return fmt.Errorf("packet %#x has sequence bits beyond length %d (mask %#x)", id, p.length, p.got)
			}
		}
		if got != p.received {
			return fmt.Errorf("packet %#x marked %d sequences but counted %d", id, got, p.received)
		}
		pendingFlits += uint64(p.received)
	}
	if want := n.totalCompleted + n.totalDiscarded + pendingFlits; n.totalEjected != want {
		return fmt.Errorf("ejected %d flits but accounted %d (completed %d + discarded %d + pending %d)",
			n.totalEjected, want, n.totalCompleted, n.totalDiscarded, pendingFlits)
	}
	if !n.retain && n.totalDiscarded != 0 {
		return fmt.Errorf("discarded %d flits without retransmission in play", n.totalDiscarded)
	}
	return nil
}

// ResetStats clears counters and summaries (used to discard warmup)
// without touching in-flight state.
func (n *NI) ResetStats() {
	n.injectedFlits = 0
	n.injectedPackets = 0
	n.createdPackets = 0
	n.deliveredFlits = 0
	n.deliveredPackets = 0
	n.netLatency.Reset()
	n.totalLatency.Reset()
	n.deflections.Reset()
	n.queueLenSum = 0
	n.queueLenSamples = 0
}

// Reset rewinds the NI to its freshly constructed state, keeping the
// queue rings and map storage. The flits of a packetized head packet are
// dropped, not recycled: the network reclaims its whole arena first. The
// retain flag and ack hook are network-owned configuration and survive;
// the user handler and create hook are cleared — whoever reattaches the
// traffic layer registers them again, exactly as on a fresh build.
func (n *NI) Reset() {
	n.nextPkt = 0
	for vn := range n.backlog {
		n.head[vn] = nil
		n.backlog[vn].head, n.backlog[vn].n = 0, 0
	}
	n.queuedFlits = 0
	clear(n.reassembly)
	n.handler = nil
	n.createHook = nil
	n.deliveredHook = nil
	clear(n.retained)
	clear(n.completed)
	n.ResetStats()
	n.totalInjected = 0
	n.totalEjected = 0
	n.totalCompleted = 0
	n.totalDiscarded = 0
}

// Package ni implements the network interface at each node: packetization
// of messages into flits, per-virtual-network injection queues, and
// MSHR-style reassembly of (possibly out-of-order) flits back into
// packets.
//
// Reassembly is receive-side buffering: per the paper it is provisioned by
// MSHRs, is required for backpressured and backpressureless networks
// alike, and is excluded from network energy. The NI therefore always
// accepts ejected flits.
package ni

import (
	"fmt"
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
	queues      [flit.NumVNs][]*flit.Flit

	// arena supplies recycled flit blocks for packetization.
	arena *flit.Arena
	// ashard, on sharded networks, is the allocation magazine of the
	// shard this NI's node belongs to; packetize and recycle go through
	// it (lock-free shard-local fast path) instead of the serial arena
	// entry points. Nil on serial networks.
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
	retained  map[uint64]flit.Packet
	completed map[uint64]struct{}
	epoch     map[uint64]int // current transmission epoch per retained packet
	queued    map[uint64]int // flits of the packet still awaiting injection

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
	n.retained = make(map[uint64]flit.Packet)
	n.completed = make(map[uint64]struct{})
	n.epoch = make(map[uint64]int)
	n.queued = make(map[uint64]int)
	return n
}

// New returns the network interface for node (a slab of one) with a
// flit arena of its own.
func New(node topology.NodeID) *NI {
	n := NewSlab(1).New(node)
	n.SetArena(flit.NewArena())
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

// packetize expands p through the shard magazine when one is attached,
// through the serial arena otherwise.
func (n *NI) packetize(p flit.Packet) []*flit.Flit {
	if n.ashard != nil {
		return n.ashard.Packetize(p)
	}
	return n.arena.Packetize(p)
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
	delete(n.epoch, packetID)
	delete(n.queued, packetID)
}

// SetRetain controls whether packets are retained until delivery for
// retransmission (used by the drop-based backpressureless variant).
func (n *NI) SetRetain(retain bool) { n.retain = retain }

// SendPacket packetizes and enqueues a packet for injection, returning its
// ID. length is the flit count; vn selects the virtual network.
func (n *NI) SendPacket(now uint64, dst topology.NodeID, vn flit.VN, length int, payload uint64) uint64 {
	if length < 1 {
		panic(fmt.Sprintf("ni: packet length must be >= 1, got %d", length))
	}
	if dst == n.node {
		panic("ni: self-addressed packet")
	}
	n.nextPkt++
	p := flit.Packet{
		ID:        uint64(n.node)<<40 | n.nextPkt,
		Src:       n.node,
		Dst:       dst,
		VN:        vn,
		Len:       length,
		CreatedAt: now,
		Payload:   payload,
	}
	n.createdPackets++
	if n.createHook != nil {
		if n.createDeferOn != nil && *n.createDeferOn {
			n.createDefer(p)
		} else {
			n.createHook(p)
		}
	}
	if n.retain {
		n.retained[p.ID] = p
		n.epoch[p.ID] = 0
		n.queued[p.ID] = p.Len
	}
	n.enqueue(p)
	return p.ID
}

func (n *NI) enqueue(p flit.Packet) {
	fs := n.packetize(p)
	n.queues[p.VN] = append(n.queues[p.VN], fs...)
	n.queuedFlits += len(fs)
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
	p, ok := n.retained[packetID]
	if !ok {
		return RetransmitDone
	}
	if n.queued[packetID] > 0 {
		return RetransmitDeferred
	}
	n.epoch[packetID]++
	e := n.epoch[packetID]
	fs := n.packetize(p)
	for _, f := range fs {
		f.Retransmits = e
	}
	n.queued[packetID] = p.Len
	n.queues[p.VN] = append(n.queues[p.VN], fs...)
	n.queuedFlits += len(fs)
	return Retransmitted
}

// Epoch returns the current transmission epoch of a retained packet, or
// -1 once it has been delivered. NACKs carrying an older epoch are stale
// (they refer to flits of a superseded copy) and must be ignored.
func (n *NI) Epoch(packetID uint64) int {
	if _, ok := n.retained[packetID]; !ok {
		return -1
	}
	return n.epoch[packetID]
}

// Peek implements router.LocalSource.
func (n *NI) Peek(vn flit.VN) *flit.Flit {
	q := n.queues[vn]
	if len(q) == 0 {
		return nil
	}
	return q[0]
}

// Pop implements router.LocalSource. The popped flit is stamped with its
// injection cycle; callers must only pop flits they immediately inject.
func (n *NI) Pop(vn flit.VN) *flit.Flit {
	q := n.queues[vn]
	if len(q) == 0 {
		return nil
	}
	f := q[0]
	// Slide instead of re-slicing so the backing array is reused.
	copy(q, q[1:])
	n.queues[vn] = q[:len(q)-1]
	n.queuedFlits--
	if n.retain {
		if c := n.queued[f.PacketID]; c > 0 {
			n.queued[f.PacketID] = c - 1
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
	delete(n.retained, pid)
	if n.retain {
		n.completed[pid] = struct{}{}
		delete(n.epoch, pid)
		delete(n.queued, pid)
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

// QueueLen returns the flits currently waiting for injection.
func (n *NI) QueueLen() int { return n.queuedFlits }

// QueuedFlits implements router.QueuedCounter: the O(1) total of flits
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
// queue backing arrays and map storage. The retain flag and ack hook are
// network-owned configuration and survive; the user handler and create
// hook are cleared — whoever reattaches the traffic layer registers them
// again, exactly as on a fresh build.
func (n *NI) Reset() {
	n.nextPkt = 0
	for vn := range n.queues {
		n.queues[vn] = n.queues[vn][:0]
	}
	n.queuedFlits = 0
	clear(n.reassembly)
	n.handler = nil
	n.createHook = nil
	n.deliveredHook = nil
	clear(n.retained)
	clear(n.completed)
	clear(n.epoch)
	clear(n.queued)
	n.ResetStats()
	n.totalInjected = 0
	n.totalEjected = 0
	n.totalCompleted = 0
	n.totalDiscarded = 0
}

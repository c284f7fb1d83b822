// Package link provides the latched, fixed-latency channels that connect
// routers: data links carrying flits, credit links carrying credit
// backflow, and control lines carrying AFC's credit-tracking start/stop
// notifications.
//
// A Pipe is a cycle-indexed ring buffer: a value sent at cycle t with
// latency L becomes visible to the receiver exactly at cycle t+L and at no
// other time. Because every inter-router interaction is mediated by a
// Pipe, the order in which routers are ticked within a cycle cannot leak
// information — the simulator stays deterministic and composable.
package link

import (
	"fmt"

	"afcnet/internal/flit"
)

// Pipe is a single-value-per-cycle channel with a fixed latency of at
// least one cycle.
type Pipe[T any] struct {
	lat int
	// mask is len(vals)-1: the ring is sized to the next power of two at
	// or above lat+1, so slot() is a single AND instead of a hardware
	// divide on the hottest call in the simulator. Any ring of at least
	// lat+1 slots is correct — distinct cycles within one latency window
	// always map to distinct slots.
	mask     int
	vals     []T
	occupied []bool
	inflight int

	// tally, when non-nil, points at a receiver-owned aggregate
	// in-flight counter shared by every pipe inbound to one router: the
	// network gives all of a node's In/CreditIn/CtrlIn pipes the same
	// slot of a contiguous per-node slab, so the router's quiescence
	// check replaces up to twelve pipe dereferences with a single load.
	// The counter mirrors the sum of those pipes' inflight fields at
	// every observation point, because both move in the same places: a
	// ring commit (send) increments, a successful Recv decrements, and
	// Reset subtracts what the ring still held. Shard-safe by the same
	// argument as the ring itself — send() on a staged boundary pipe
	// runs in CommitStaged on the receiving shard's worker, unstaged
	// pipes connect endpoints of one shard, and Recv is the receiver's
	// own — so every access to a node's slot happens on the shard that
	// owns the node (or in serial phase).
	tally *int32

	// Staged-send mode for pipes that cross a shard boundary (see the
	// sharded tick in internal/network). When staged, Send parks the
	// value in a sender-owned register instead of touching the ring, so
	// the sending and receiving shards never write the same memory
	// within a parallel phase. The registers are double-buffered by
	// cycle parity: the sender parks into slot now&1 and self-registers
	// in its boundary's StagedBucket; the receiving shard commits the
	// opposite slot at the head of its next cycle's parallel pass
	// (CommitStaged), while the sender may already be parking the next
	// cycle's value in the other slot. Parity slots are distinct memory
	// locations and re-use of a slot two cycles later is ordered by the
	// intervening barrier, so no phase of the protocol shares memory
	// across shards. Timing is unchanged: a value parked at cycle t
	// commits at t+1 against its original send cycle, and latency >= 1
	// puts its arrival no earlier than t+1 — after the commit, which
	// runs before the receiving shard ticks its routers.
	staged    bool
	stagedSet [2]bool
	stagedAt  [2]uint64
	stagedVal [2]T
	bucket    *StagedBucket
}

// NewPipe returns a pipe with the given latency. It panics if lat < 1:
// zero-latency pipes would make results depend on tick order.
func NewPipe[T any](lat int) *Pipe[T] {
	if lat < 1 {
		panic(fmt.Sprintf("link: pipe latency must be >= 1, got %d", lat))
	}
	n := 1
	for n < lat+1 {
		n <<= 1
	}
	return &Pipe[T]{
		lat:      lat,
		mask:     n - 1,
		vals:     make([]T, n),
		occupied: make([]bool, n),
	}
}

// Latency returns the pipe's latency in cycles.
func (p *Pipe[T]) Latency() int { return p.lat }

// SetTally attaches (or, with nil, detaches) the receiver's aggregate
// in-flight counter. Build-time wiring owned by the network, like
// staging; Reset keeps it. Must be called while the pipe is empty —
// the counter starts mirroring from zero.
func (p *Pipe[T]) SetTally(t *int32) { p.tally = t }

// Reset empties the pipe and zeroes its counters, restoring the state of
// a freshly constructed pipe of the same latency (the backing arrays are
// kept). Part of the cross-cell network-reuse path.
func (p *Pipe[T]) Reset() {
	if p.tally != nil {
		*p.tally -= int32(p.inflight)
	}
	var zero T
	for i := range p.vals {
		p.vals[i] = zero
		p.occupied[i] = false
	}
	p.inflight = 0
	// Clear any parked sends but keep the staged-mode wiring itself
	// (mode flag and bucket): like the latency, staging is build-time
	// wiring owned by the network, which clears the buckets in its own
	// Reset.
	for par := range p.stagedSet {
		p.stagedVal[par] = zero
		p.stagedSet[par] = false
		p.stagedAt[par] = 0
	}
}

func (p *Pipe[T]) slot(cycle uint64) int {
	return int(cycle) & p.mask
}

// CanSend reports whether a value may be sent at cycle now (i.e. the
// arrival slot is free; it can only be occupied if the sender violated the
// one-per-cycle discipline).
func (p *Pipe[T]) CanSend(now uint64) bool {
	return p.inflight == 0 || !p.occupied[p.slot(now+uint64(p.lat))]
}

// Send schedules v to arrive at now+Latency(). It panics if a value was
// already sent this cycle, since physical links carry one value per cycle.
// On a staged pipe the send is parked sender-side in the slot of now's
// parity and registered in the boundary's bucket; the receiving shard
// commits it next cycle, before the arrival cycle (see the staged-field
// comment for the full protocol).
func (p *Pipe[T]) Send(now uint64, v T) {
	if p.staged {
		par := int(now) & 1
		if p.stagedSet[par] {
			panic(fmt.Sprintf("link: double send at cycle %d", now))
		}
		p.stagedVal[par] = v
		p.stagedAt[par] = now
		p.stagedSet[par] = true
		p.bucket.add(par, p)
		return
	}
	p.send(now, v)
}

func (p *Pipe[T]) send(now uint64, v T) {
	s := p.slot(now + uint64(p.lat))
	if p.occupied[s] {
		panic(fmt.Sprintf("link: double send at cycle %d", now))
	}
	p.vals[s] = v
	p.occupied[s] = true
	p.inflight++
	if p.tally != nil {
		*p.tally++
	}
}

// SetStaged switches the pipe into staged-send mode, parking sends for
// the given boundary bucket. The network marks the pipes whose sender
// and receiver land in different shards; all other pipes keep the
// direct path with zero new work. Passing nil switches staging off.
func (p *Pipe[T]) SetStaged(b *StagedBucket) {
	p.staged = b != nil
	p.bucket = b
}

// CommitStaged applies the send parked in the given parity slot, if
// any. Called by the receiving shard's worker at the head of its
// parallel pass — owner-side commit: the committer is the only shard
// reading the pipe's ring, so no serial drain step is needed.
func (p *Pipe[T]) CommitStaged(par int) {
	if !p.stagedSet[par] {
		return
	}
	v, at := p.stagedVal[par], p.stagedAt[par]
	var zero T
	p.stagedVal[par] = zero
	p.stagedSet[par] = false
	p.send(at, v)
}

// Committer is the type-erased handle a StagedBucket keeps per parked
// send so the owning shard can commit data, credit and control pipes
// uniformly.
type Committer interface {
	CommitStaged(par int)
}

// StagedBucket collects the pipes of one directed shard boundary that
// parked a send this cycle, split by cycle parity. Exactly one shard
// writes a bucket (the boundary's sender side registers itself in Send)
// and exactly one other shard drains it (the owner commits the previous
// cycle's parity at the head of its pass), with the kernel barrier
// ordering the two — so neither slice is ever touched by two shards in
// the same phase. A pipe appears at most once per slot per cycle (the
// one-send-per-cycle discipline), and slices keep their capacity across
// cycles, so the steady state allocates nothing.
type StagedBucket struct {
	pend [2][]Committer
}

// add registers a parked send for the owner's next commit pass. Called
// by Pipe.Send on the boundary's sending shard.
func (b *StagedBucket) add(par int, c Committer) {
	b.pend[par] = append(b.pend[par], c)
}

// Commit applies every send parked in the given parity slot, in the
// sender's deterministic tick order, and empties the slot.
func (b *StagedBucket) Commit(par int) {
	pend := b.pend[par]
	if len(pend) == 0 {
		return
	}
	for _, c := range pend {
		c.CommitStaged(par)
	}
	b.pend[par] = pend[:0]
}

// Pending reports whether either parity slot holds uncommitted sends.
// Serial-side read (quiescence and drain checks between cycles).
func (b *StagedBucket) Pending() bool {
	return len(b.pend[0]) > 0 || len(b.pend[1]) > 0
}

// Reset empties both parity slots without committing, for network
// reset: the pipes' own Reset discards the parked values themselves.
func (b *StagedBucket) Reset() {
	b.pend[0] = b.pend[0][:0]
	b.pend[1] = b.pend[1][:0]
}

// Recv returns the value arriving at cycle now, if any, and clears the
// slot. A value not received at its arrival cycle is lost; receivers must
// therefore poll every cycle (all routers do).
func (p *Pipe[T]) Recv(now uint64) (T, bool) {
	// Empty-pipe fast path: every router polls every wired pipe every
	// active cycle, and most polls find nothing. One counter load beats
	// the slot arithmetic plus occupied-array load.
	if p.inflight == 0 {
		var zero T
		return zero, false
	}
	s := p.slot(now)
	if !p.occupied[s] {
		var zero T
		return zero, false
	}
	v := p.vals[s]
	var zero T
	p.vals[s] = zero
	p.occupied[s] = false
	p.inflight--
	if p.tally != nil {
		*p.tally--
	}
	return v, true
}

// Peek returns the value arriving at cycle now without consuming it.
func (p *Pipe[T]) Peek(now uint64) (T, bool) {
	if p.inflight == 0 {
		var zero T
		return zero, false
	}
	s := p.slot(now)
	if !p.occupied[s] {
		var zero T
		return zero, false
	}
	return p.vals[s], true
}

// InFlight counts values currently traveling in the pipe (sent but not
// yet received). O(1): routers consult it every cycle to decide
// quiescence. A value that is never received stays counted — receivers
// must poll every cycle while the pipe is occupied (all routers do; the
// quiescence contract itself guarantees a router with occupied input
// pipes keeps ticking). Parked staged sends are deliberately excluded:
// the receiving shard reads this counter concurrently with the sender's
// parking, so it must only cover the ring the receiver owns. Serial
// observers that need parked sends use PendingStaged or AppendInFlight.
func (p *Pipe[T]) InFlight() int { return p.inflight }

// PendingStaged reports whether a staged-mode send is parked in either
// parity slot, not yet committed into the ring. Serial-side read (the
// network's Drained scan); always false on unstaged pipes.
func (p *Pipe[T]) PendingStaged() bool { return p.stagedSet[0] || p.stagedSet[1] }

// StagedAt returns the value parked by a staged-mode Send at cycle at,
// if any. Serial-side read: the invariant checker uses it to observe a
// boundary pipe's current-cycle send, which Peek cannot see until the
// owner commits it next cycle. Always misses on unstaged pipes.
func (p *Pipe[T]) StagedAt(at uint64) (T, bool) {
	par := int(at) & 1
	if p.stagedSet[par] && p.stagedAt[par] == at {
		return p.stagedVal[par], true
	}
	var zero T
	return zero, false
}

// AppendInFlight appends the values currently traveling in the pipe
// (sent but not yet received) to buf and returns it, including sends
// still parked in staged-mode parity slots — to the serial-side
// observer (the invariant checker's conservation scan) a parked send is
// as in-flight as a committed one. Slot order, not send order; the
// checker only counts, so order is irrelevant.
func (p *Pipe[T]) AppendInFlight(buf []T) []T {
	for i, occ := range p.occupied {
		if occ {
			buf = append(buf, p.vals[i])
		}
	}
	for par, set := range p.stagedSet {
		if set {
			buf = append(buf, p.stagedVal[par])
		}
	}
	return buf
}

// Credit is a unit of credit backflow: the downstream router freed one
// buffer slot. The baseline backpressured router tracks credits per VC;
// AFC's lazy VC allocation tracks them per virtual network, so the message
// carries both identifiers and each receiver reads the one it uses.
type Credit struct {
	VC int
	VN flit.VN
}

// Ctrl is a control-line notification between adjacent AFC routers
// (Section III-A: a special control line indicates when to start/stop
// credit tracking as the sender switches modes).
type Ctrl uint8

// Control notifications.
const (
	// CtrlStartCredits: the sender is switching to backpressured mode;
	// start counting credits (the sender's buffers are empty, so the
	// initial credit count is the full buffer capacity).
	CtrlStartCredits Ctrl = iota + 1
	// CtrlStopCredits: the sender has switched to backpressureless mode;
	// stop credit accounting and treat the sender as always-accepting.
	CtrlStopCredits
)

// String implements fmt.Stringer.
func (c Ctrl) String() string {
	switch c {
	case CtrlStartCredits:
		return "start-credits"
	case CtrlStopCredits:
		return "stop-credits"
	}
	return fmt.Sprintf("Ctrl(%d)", uint8(c))
}

// Data is a flit-carrying link.
type Data = Pipe[*flit.Flit]

// CreditLink carries credit backflow.
type CreditLink = Pipe[Credit]

// CtrlLink carries mode-switch notifications.
type CtrlLink = Pipe[Ctrl]

// NewData returns a flit link with the given latency.
func NewData(lat int) *Data { return NewPipe[*flit.Flit](lat) }

// NewCredit returns a credit link with the given latency.
func NewCredit(lat int) *CreditLink { return NewPipe[Credit](lat) }

// NewCtrl returns a control line with the given latency.
func NewCtrl(lat int) *CtrlLink { return NewPipe[Ctrl](lat) }

// Slab preallocates a fixed number of same-latency pipes as one
// contiguous block: the Pipe structs sit in a single backing array and
// their rings are carved from two shared arrays, in carve order. The
// network carves its links in ascending-node wiring order, which for
// row-banded shards is band-major — a shard's boundary traffic and its
// routers' inbound rings land in one contiguous working set instead of
// thousands of individually heap-allocated rings.
type Slab[T any] struct {
	lat     int
	ringLen int
	pipes   []Pipe[T]
	vals    []T
	occ     []bool
	next    int
}

// NewSlab returns a slab of count pipes with the given latency. Like
// NewPipe it panics on lat < 1.
func NewSlab[T any](count, lat int) *Slab[T] {
	if lat < 1 {
		panic(fmt.Sprintf("link: pipe latency must be >= 1, got %d", lat))
	}
	n := 1
	for n < lat+1 {
		n <<= 1
	}
	return &Slab[T]{
		lat:     lat,
		ringLen: n,
		pipes:   make([]Pipe[T], count),
		vals:    make([]T, count*n),
		occ:     make([]bool, count*n),
	}
}

// New carves the next pipe from the slab. It panics when the slab is
// exhausted — the caller sized it from the same edge enumeration it
// carves with, so running out is a wiring bug, not a resize condition.
func (s *Slab[T]) New() *Pipe[T] {
	if s.next >= len(s.pipes) {
		panic("link: pipe slab exhausted")
	}
	p := &s.pipes[s.next]
	lo, hi := s.next*s.ringLen, (s.next+1)*s.ringLen
	*p = Pipe[T]{
		lat:      s.lat,
		mask:     s.ringLen - 1,
		vals:     s.vals[lo:hi:hi],
		occupied: s.occ[lo:hi:hi],
	}
	s.next++
	return p
}

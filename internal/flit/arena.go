package flit

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// maxPooledLen bounds the packet lengths the arena recycles. Both packet
// classes in the simulated system (1 and 17 flits) fit far below it; a
// longer packet falls back to plain heap allocation, and its flits carry
// nil handles that make Recycle a no-op.
const maxPooledLen = 64

// block is one recyclable flit slab: the backing array and pointer slice
// of a single packet, exactly as Packet.Flits would have allocated them.
// A block is handed out whole and comes back flit by flit; the returned
// bitmask (indexed by Seq, which is why maxPooledLen is 64) catches a
// flit recycled twice in the same generation, and the generation stamp
// catches a handle that outlived the block's reuse.
//
// live and returned are the only fields touched while flits are in the
// wild; the shard-local recycle path mutates them with atomic RMWs (the
// flits of one dropped packet can retire on several shards in the same
// parallel phase). The atomic chain through live also orders everything
// else: the recycler that takes live to zero is, by construction, the
// last holder of any handle, so the plain field writes of the next
// Packetize are ordered after every access of the previous generation.
type block struct {
	backing  []Flit
	ptrs     []*Flit
	owner    *Arena
	gen      uint32
	live     int32
	returned uint64
}

// Arena is a per-network flit allocator: Packetize hands out blocks in
// Packet.Flits form, Recycle returns them at the points a flit is
// consumed (NI delivery, drop retirement). Steady state allocates
// nothing — every packet reuses a block of its length class.
//
// An Arena, like the network owning it, is single-goroutine state. The
// sharded tick gets its own allocation front instead: SetShards mints
// one ArenaShard magazine per shard, and every packetize/recycle of a
// sharded network goes through the magazine of the shard it runs on, so
// the steady state of a parallel phase touches no shared memory at all.
// The shared reserve behind the magazines is touched only on a magazine
// miss (batch refill) or overflow (batch flush), both amortized, and
// minting stays serial-only (Reconcile, between phases).
type Arena struct {
	free [maxPooledLen + 1][]*block
	all  []*block
	live int

	// mags are the per-shard magazines (nil for serial networks);
	// reserve is the mutex-protected overflow/refill pool behind them.
	mags    []*ArenaShard
	rmu     sync.Mutex
	reserve [maxPooledLen + 1][]*block
}

// NewArena returns an empty arena.
func NewArena() *Arena { return &Arena{} }

// refillBatch is how many blocks a magazine steals from the reserve per
// miss; flushHigh/flushBatch bound a magazine's free list when traffic
// is asymmetric (one shard's sources feed another shard's sinks, so
// blocks migrate): past flushHigh blocks of one length the magazine
// flushes flushBatch of them back to the reserve, where starved
// magazines refill before any new block is minted. flushHigh is kept
// low on purpose — with a high threshold the whole stock of a length
// class can sit parked in rich magazines while the reserve runs dry and
// poor magazines starve every cycle (measured on the 16x16 uniform
// bench: the pool grew without bound, a heap packet every few hundred
// cycles, forever).
const (
	refillBatch = 4
	flushHigh   = 16
	flushBatch  = 8
)

// ArenaShard is one shard's allocation magazine: a private free list
// front for Packetize and Recycle that needs no locking in the steady
// state. The network hands one to every NI and drop router of a shard;
// all methods must be called either from that shard's worker during a
// parallel phase or from the serial side between phases.
type ArenaShard struct {
	a    *Arena
	free [maxPooledLen + 1][]*block
	// serial marks a magazine whose Recycle never races another shard's:
	// the network sets it when the shard group dispatches inline (single-P
	// runtimes run all shards on one goroutine), downgrading the block
	// bookkeeping to plain loads and stores.
	serial bool
	// live is this magazine's contribution to the arena-wide live-flit
	// count (handed out minus recycled here; negative when the shard
	// consumes more than it produces).
	live int
	// starved tallies Packetize calls that found both the magazine and
	// the reserve dry; Reconcile mints the replacement stock serially.
	starved    [maxPooledLen + 1]uint32
	starvedAny bool
}

// SetShards mints n per-shard magazines (idempotent for the same n).
// Serial-phase only. No-op for n <= 1: a serial network keeps the plain
// single-goroutine paths.
func (a *Arena) SetShards(n int) {
	if n <= 1 || len(a.mags) == n {
		return
	}
	a.mags = make([]*ArenaShard, n)
	for i := range a.mags {
		a.mags[i] = &ArenaShard{a: a}
	}
}

// Shard returns shard i's magazine.
func (a *Arena) Shard(i int) *ArenaShard { return a.mags[i] }

// SetShardsSerial marks every magazine as free of cross-shard
// concurrency (inline shard dispatch), so Recycle skips its atomics.
// Call after SetShards.
func (a *Arena) SetShardsSerial(on bool) {
	for _, m := range a.mags {
		m.serial = on
	}
}

// mint allocates a fresh block of the given length. Serial-phase only:
// it appends to the arena-wide block list.
func (a *Arena) mint(length int) *block {
	b := &block{
		backing: make([]Flit, length),
		ptrs:    make([]*Flit, length),
		owner:   a,
	}
	for i := range b.backing {
		b.ptrs[i] = &b.backing[i]
	}
	a.all = append(a.all, b)
	return b
}

// fill stamps block b with packet p's flits, exactly as Packet.Flits
// would have, and returns the pointer slice. Shared by the serial and
// magazine packetize paths; the caller has already made b exclusive.
func (a *Arena) fill(b *block, p Packet) []*Flit {
	b.gen++
	b.live = int32(p.Len)
	b.returned = 0
	for i := range b.backing {
		// Field-wise stores instead of a struct literal: the literal would
		// be built in a temporary and block-copied into the slab, which is
		// the hottest copy of a packetize-heavy cycle.
		f := &b.backing[i]
		f.PacketID = p.ID
		f.Seq = i
		f.Len = p.Len
		f.Src = p.Src
		f.Dst = p.Dst
		f.VN = p.VN
		f.VC = NoVC
		f.CreatedAt = p.CreatedAt
		f.InjectedAt = 0
		f.Hops = 0
		f.Deflections = 0
		f.Retransmits = 0
		f.Payload = p.Payload
		f.blk = b
		f.gen = b.gen
	}
	return b.ptrs
}

// Packetize expands p into flits like Packet.Flits, reusing a recycled
// block when one of the right length is free. An out-of-range length
// falls back to heap allocation. Single-goroutine (serial networks);
// sharded networks packetize through their ArenaShard magazines instead.
func (a *Arena) Packetize(p Packet) []*Flit {
	if p.Len < 1 || p.Len > maxPooledLen {
		return p.Flits()
	}
	var b *block
	if fl := a.free[p.Len]; len(fl) > 0 {
		b = fl[len(fl)-1]
		a.free[p.Len] = fl[:len(fl)-1]
	} else {
		b = a.mint(p.Len)
	}
	a.live += p.Len
	return a.fill(b, p)
}

// Packetize is the magazine packetize: pop from the shard's own free
// list, batch-refill from the shared reserve on a miss, and fall back
// to heap flits when both are dry (nil handles, Recycle no-op) — the
// replacement stock is minted serially at the next Reconcile, so a
// steady-state workload stops starving (and stops allocating) once the
// magazines have grown to the workload's concurrent footprint.
func (s *ArenaShard) Packetize(p Packet) []*Flit {
	if p.Len < 1 || p.Len > maxPooledLen {
		return p.Flits()
	}
	fl := s.free[p.Len]
	if len(fl) == 0 {
		if n := s.a.refill(p.Len, &s.free[p.Len]); n == 0 {
			s.starved[p.Len]++
			s.starvedAny = true
			return p.Flits()
		}
		fl = s.free[p.Len]
	}
	b := fl[len(fl)-1]
	s.free[p.Len] = fl[:len(fl)-1]
	s.live += p.Len
	return s.a.fill(b, p)
}

// refill steals up to refillBatch blocks of the given length from the
// reserve into dst, returning how many it got. Mutex cost is paid once
// per magazine miss, not per packet.
func (a *Arena) refill(length int, dst *[]*block) int {
	a.rmu.Lock()
	r := a.reserve[length]
	n := len(r)
	if n > refillBatch {
		n = refillBatch
	}
	if n > 0 {
		*dst = append(*dst, r[len(r)-n:]...)
		a.reserve[length] = r[:len(r)-n]
	}
	a.rmu.Unlock()
	return n
}

// Recycle returns a consumed flit through this shard's magazine. Safe
// against the flits of one block retiring on several shards at once:
// the block bookkeeping is atomic, and whichever shard returns the last
// flit takes the whole block into its own magazine.
func (s *ArenaShard) Recycle(f *Flit) {
	b := f.blk
	if b == nil {
		return
	}
	if f.gen != b.gen {
		panic(fmt.Sprintf("flit: use-after-free recycle of %v (handle gen %d, block gen %d)", f, f.gen, b.gen))
	}
	bit := uint64(1) << uint(f.Seq)
	if s.serial {
		// Inline dispatch: every shard runs on one goroutine, so the plain
		// path of the package-level Recycle is safe and ~1 cycle of CAS
		// cheaper per flit.
		if b.returned&bit != 0 {
			panic(fmt.Sprintf("flit: double recycle of %v", f))
		}
		b.returned |= bit
		s.live--
		b.live--
		if b.live != 0 {
			return
		}
	} else {
		for {
			old := atomic.LoadUint64(&b.returned)
			if old&bit != 0 {
				panic(fmt.Sprintf("flit: double recycle of %v", f))
			}
			if atomic.CompareAndSwapUint64(&b.returned, old, old|bit) {
				break
			}
		}
		s.live--
		if atomic.AddInt32(&b.live, -1) != 0 {
			return
		}
	}
	l := len(b.backing)
	s.free[l] = append(s.free[l], b)
	if len(s.free[l]) > flushHigh {
		s.flush(l)
	}
}

// flush moves flushBatch blocks of one length class back to the shared
// reserve — the relief valve for asymmetric traffic, where one shard's
// sinks would otherwise accumulate every block its sources starve for.
func (s *ArenaShard) flush(length int) {
	fl := s.free[length]
	n := flushBatch
	s.a.rmu.Lock()
	s.a.reserve[length] = append(s.a.reserve[length], fl[len(fl)-n:]...)
	s.a.rmu.Unlock()
	s.free[length] = fl[:len(fl)-n]
}

// Reconcile mints replacement stock for every starved Packetize since
// the previous call, preferring blocks already parked in the reserve
// over growing the pool, and tops the reserve of a starved length class
// up with refillBatch fresh blocks of headroom. The headroom is what
// makes starvation terminate: replacing strictly 1:1 chases the
// workload's random-walk excursions asymptotically (the pool keeps
// growing and the heap fallback keeps firing), while a batch of slack
// per event converges to a stock the excursions no longer pierce.
// Serial-phase only (minting appends to the arena's block list); the
// sharded tick calls it once per cycle after the barrier. The starved-flag
// check keeps the steady-state cost at one branch per magazine.
func (a *Arena) Reconcile() {
	for _, m := range a.mags {
		if !m.starvedAny {
			continue
		}
		m.starvedAny = false
		for l := range m.starved {
			if m.starved[l] == 0 {
				continue
			}
			for ; m.starved[l] > 0; m.starved[l]-- {
				var b *block
				if r := a.reserve[l]; len(r) > 0 {
					b = r[len(r)-1]
					a.reserve[l] = r[:len(r)-1]
				} else {
					b = a.mint(l)
				}
				m.free[l] = append(m.free[l], b)
			}
			for i := 0; i < refillBatch; i++ {
				a.reserve[l] = append(a.reserve[l], a.mint(l))
			}
		}
	}
}

// Recycle returns a consumed flit to its arena. It is a no-op for
// heap-allocated flits (nil handle), so consumption sites need not know
// which path produced the flit. Recycling the same flit twice, or a flit
// whose block has already been reissued, is a lifecycle bug and panics.
// Single-goroutine (serial networks); sharded networks recycle through
// their ArenaShard magazines instead.
func Recycle(f *Flit) {
	b := f.blk
	if b == nil {
		return
	}
	if f.gen != b.gen {
		panic(fmt.Sprintf("flit: use-after-free recycle of %v (handle gen %d, block gen %d)", f, f.gen, b.gen))
	}
	bit := uint64(1) << uint(f.Seq)
	if b.returned&bit != 0 {
		panic(fmt.Sprintf("flit: double recycle of %v", f))
	}
	b.returned |= bit
	b.live--
	b.owner.live--
	if b.live == 0 {
		a := b.owner
		a.free[len(b.backing)] = append(a.free[len(b.backing)], b)
	}
}

// CheckHandle verifies the arena handle of an in-flight flit: a flit
// still traveling the network must belong to the current generation of
// its block and must not be marked returned. Heap-allocated flits always
// pass. The invariant checker calls this during its conservation scan,
// so a double recycle or use-after-free surfaces as a checker violation
// even when the corrupted handle never reaches Recycle again.
func CheckHandle(f *Flit) error {
	b := f.blk
	if b == nil {
		return nil
	}
	if f.gen != b.gen {
		return fmt.Errorf("flit: in-flight %v holds a stale arena handle (handle gen %d, block gen %d) — use after free", f, f.gen, b.gen)
	}
	if b.returned&(uint64(1)<<uint(f.Seq)) != 0 {
		return fmt.Errorf("flit: in-flight %v is marked recycled — double use", f)
	}
	return nil
}

// Live returns the number of flits handed out and not yet recycled — the
// leak oracle: after a network drains, every injected flit has been
// consumed, so Live must be zero. Shard magazines contribute their
// (possibly negative) deltas: a flit packetized on one shard and
// recycled on another cancels across the sum.
func (a *Arena) Live() int {
	t := a.live
	for _, m := range a.mags {
		t += m.live
	}
	return t
}

// Reclaim force-returns every outstanding block, invalidating all
// handles still in the wild. Network.Reset calls it when a cell ends
// with flits in flight (closed-loop measurement windows do); any stale
// handle that later reaches Recycle or CheckHandle is caught by the
// generation stamp. With shard magazines configured the blocks land in
// the shared reserve (per-shard locality is meaningless after a reset)
// and the magazines restart empty; serial arenas keep them on the free
// lists, as a fresh build would.
func (a *Arena) Reclaim() {
	for i := range a.free {
		a.free[i] = a.free[i][:0]
	}
	for _, m := range a.mags {
		for i := range m.free {
			m.free[i] = m.free[i][:0]
		}
		m.live = 0
		m.starved = [maxPooledLen + 1]uint32{}
		m.starvedAny = false
	}
	if len(a.mags) > 0 {
		for i := range a.reserve {
			a.reserve[i] = a.reserve[i][:0]
		}
		for _, b := range a.all {
			b.gen++
			b.live = 0
			b.returned = 0
			a.reserve[len(b.backing)] = append(a.reserve[len(b.backing)], b)
		}
	} else {
		for _, b := range a.all {
			b.gen++
			b.live = 0
			b.returned = 0
			a.free[len(b.backing)] = append(a.free[len(b.backing)], b)
		}
	}
	a.live = 0
}

// Blocks returns how many blocks the arena has ever minted, for tests
// and telemetry.
func (a *Arena) Blocks() int { return len(a.all) }

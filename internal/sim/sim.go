// Package sim provides the synchronous, cycle-driven simulation kernel:
// a clock, a deterministic random-number source with independent
// substreams, and the Ticker registry the network steps each cycle.
//
// All inter-component communication in the simulator flows through latched
// links (package link), so components registered with a Kernel may be
// ticked in any order within a cycle without changing results.
//
// # Active-set scheduling
//
// The kernel understands an optional Quiescent contract: a Ticker that
// also implements Quiescer tells the kernel when ticking it would be a
// provable no-op, and the kernel skips it, calling FastForward instead to
// apply whatever per-cycle bookkeeping an idle tick still performs
// (static-energy accrual, EWMA decay, sample counters). Skipped
// components re-arm through wake edges: quiescence is defined over the
// component's observable inputs (link pipes, injection queues), so any
// write into those inputs makes the next Quiescent call return false.
// When every registered ticker is quiescent at once the simulation state
// is provably frozen, and Run/RunUntil jump the clock to the next wake
// time (Sleeper) or the end of the run in one step.
//
// The contract is exact, not approximate: a skipped cycle must leave the
// component in the bit-identical state a real Tick would have, so
// skipping changes no result.
package sim

import (
	"math/rand"
	"sync/atomic"
)

// Clock is the global cycle counter. The zero value starts at cycle 0.
type Clock struct {
	now uint64
}

// Now returns the current cycle.
func (c *Clock) Now() uint64 { return c.now }

// Tick advances the clock by one cycle and returns the new time.
func (c *Clock) Tick() uint64 {
	c.now++
	return c.now
}

// Ticker is anything that performs work once per simulated cycle.
type Ticker interface {
	Tick(now uint64)
}

// TickFunc adapts a function to the Ticker interface.
type TickFunc func(now uint64)

// Tick implements Ticker.
func (f TickFunc) Tick(now uint64) { f(now) }

// Quiescer is an optional refinement of Ticker for components that can
// prove a tick would be a no-op. The contract is strict:
//
//   - Quiescent(now) may return true only when Tick(now) would leave the
//     component bit-identical to FastForward(1) — no flits anywhere, no
//     pending input (link pipes, credits, control lines, injection
//     queues), no mode or smoothing state about to change on its own,
//     and no random-number draws.
//   - FastForward(k) applies exactly the state k consecutive idle ticks
//     would have produced (static energy, EWMA decay, idle counters,
//     arbiter rotation). It must compose: FastForward(a) then
//     FastForward(b) equals FastForward(a+b), and both equal k idle
//     Ticks bit for bit.
//
// A component whose quiescence can expire with time alone (scheduled
// retransmissions, periodic sampling) must also implement Sleeper, or
// the whole-simulation fast-forward could jump past its wake cycle.
type Quiescer interface {
	Ticker
	Quiescent(now uint64) bool
	FastForward(cycles uint64)
}

// Sleeper is an optional refinement of Quiescer for components that are
// quiescent now but know the future cycle at which they next need to
// tick (a due retransmission, the next probe sample, the next trace
// event). NextWake returns that cycle; ok=false means the component
// stays quiescent until an external wake edge. The contract: while the
// component's inputs stay frozen, Quiescent(t) must hold for every
// t < wake.
type Sleeper interface {
	Quiescer
	NextWake(now uint64) (wake uint64, ok bool)
}

// entry is one registered ticker with its cached capability assertions
// (done once at Register so Step performs no per-cycle type asserts).
type entry struct {
	t Ticker
	q Quiescer // nil if t does not implement Quiescer
	s Sleeper  // nil if t does not implement Sleeper
}

// Kernel owns the clock and the ordered set of tickers making up a
// simulation. Components are ticked in registration order; determinism is
// guaranteed because all cross-component state is latched in links.
type Kernel struct {
	clock   Clock
	entries []entry
}

// NewKernel returns an empty kernel at cycle 0.
func NewKernel() *Kernel { return &Kernel{} }

// Register adds a ticker to the kernel. Registration order is the tick
// order within a cycle. Quiescer/Sleeper implementations are detected
// here, once, so the per-cycle loop is assertion-free.
func (k *Kernel) Register(t Ticker) {
	e := entry{t: t}
	if q, ok := t.(Quiescer); ok {
		e.q = q
	}
	if s, ok := t.(Sleeper); ok {
		e.s = s
	}
	k.entries = append(k.entries, e)
}

// Reserve pre-sizes the ticker registry for n registrations, avoiding
// append growth during network construction.
func (k *Kernel) Reserve(n int) {
	if cap(k.entries)-len(k.entries) >= n {
		return
	}
	grown := make([]entry, len(k.entries), len(k.entries)+n)
	copy(grown, k.entries)
	k.entries = grown
}

// Mark returns the current registration count. Pair with Truncate to
// drop tickers registered after a known-good prefix (Network.Reset keeps
// the construction-time registrations and sheds the per-cell ones).
func (k *Kernel) Mark() int { return len(k.entries) }

// Truncate unregisters every ticker added after mark, in preparation for
// re-registering a new cell's tickers in the same slots. The dropped
// entries are zeroed so the kernel does not pin them.
func (k *Kernel) Truncate(mark int) {
	for i := mark; i < len(k.entries); i++ {
		k.entries[i] = entry{}
	}
	k.entries = k.entries[:mark]
}

// Rewind resets the clock to cycle 0 without touching the registry; the
// caller is responsible for having rewound every registered component to
// its cycle-0 state.
func (k *Kernel) Rewind() { k.clock.now = 0 }

// Now returns the current cycle.
func (k *Kernel) Now() uint64 { return k.clock.Now() }

// Step runs one cycle: every registered ticker runs at the current time,
// then the clock advances. Quiescent tickers are skipped (fast-forwarded
// by one cycle).
func (k *Kernel) Step() { k.step() }

// step is Step, additionally reporting whether every ticker was skipped
// as quiescent — in which case no component performed any work, so the
// simulation state is provably frozen and the caller may jump the clock.
func (k *Kernel) step() bool {
	now := k.clock.Now()
	idle := true
	for i := range k.entries {
		e := &k.entries[i]
		if e.q != nil && e.q.Quiescent(now) {
			// FastForward eagerly (per cycle, not batched) so that any
			// state read between steps — predicates, probes, stats —
			// always sees fully up-to-date counters.
			e.q.FastForward(1)
			continue
		}
		idle = false
		e.t.Tick(now)
	}
	k.clock.Tick()
	return idle
}

// nextWake returns the earliest future cycle any Sleeper reports needing
// to tick, if one exists. Only meaningful while all tickers are
// quiescent (otherwise wake edges can occur at any cycle).
func (k *Kernel) nextWake(now uint64) (uint64, bool) {
	var wake uint64
	have := false
	for i := range k.entries {
		s := k.entries[i].s
		if s == nil {
			continue
		}
		if w, ok := s.NextWake(now); ok && (!have || w < wake) {
			wake, have = w, true
		}
	}
	return wake, have
}

// coast jumps the clock toward end while the simulation is frozen: the
// caller just observed a fully quiescent step, so no state can change
// until the earliest Sleeper wake. Every entry's FastForward covers the
// jumped cycles, keeping per-cycle accounting exact.
func (k *Kernel) coast(end uint64) {
	now := k.clock.Now()
	target := end
	if w, ok := k.nextWake(now); ok && w < target {
		target = w
	}
	if target <= now {
		return
	}
	j := target - now
	for i := range k.entries {
		k.entries[i].q.FastForward(j)
	}
	k.clock.now += j
}

// Run executes n cycles.
func (k *Kernel) Run(n uint64) {
	end := k.clock.Now() + n
	for k.clock.Now() < end {
		if k.step() && k.clock.Now() < end {
			k.coast(end)
		}
	}
}

// RunUntil steps the kernel until pred returns true or limit cycles have
// elapsed, and reports whether pred was satisfied. pred is evaluated
// before each step so a pre-satisfied predicate runs zero cycles.
//
// When every ticker is quiescent the simulation state is frozen, so pred
// cannot change until the next wake edge; RunUntil then evaluates pred
// once and jumps the clock to that wake (or the limit) instead of
// re-evaluating an unchangeable predicate every cycle. Cycle-count
// semantics are exact — the clock advances by precisely the cycles an
// unsatisfied predicate would have run. pred must therefore be a
// function of simulation state (packets, flits, queues, drain status),
// not of the raw clock value or of per-cycle accrual counters such as
// accumulated energy; every predicate in this repository qualifies.
func (k *Kernel) RunUntil(pred func() bool, limit uint64) bool {
	end := k.clock.Now() + limit
	for k.clock.Now() < end {
		if pred() {
			return true
		}
		if k.step() && k.clock.Now() < end {
			k.coast(end)
		}
	}
	return pred()
}

// Source is a deterministic random source that can mint independent
// substreams, so that (for example) each router's arbitration randomness
// is independent of each traffic generator's.
//
// A Source (and every *rand.Rand it mints) is single-goroutine state: one
// simulation cell owns it for the cell's whole lifetime. Parallel sweeps
// must build one network — and therefore one Source — per cell
// (internal/runner enforces nothing; the per-cell construction in
// internal/experiments does). Stream carries a cheap concurrent-use check
// that panics on overlapping calls; determinism of stream numbering is
// only defined for the single-goroutine contract anyway.
type Source struct {
	seed int64
	next int64
	busy atomic.Bool // concurrent-misuse detector, not a synchronization
}

// NewSource returns a Source rooted at seed.
func NewSource(seed int64) *Source {
	return &Source{seed: seed}
}

// Stream returns a new deterministic *rand.Rand. Streams are numbered in
// creation order; the i-th stream of two Sources with equal seeds are
// identical. Stream panics if it observes an overlapping call from
// another goroutine (which would make stream numbering nondeterministic).
func (s *Source) Stream() *rand.Rand {
	return rand.New(rand.NewSource(s.StreamSeed()))
}

// StreamSeed consumes the next stream number and returns its root seed.
// rand.New(rand.NewSource(seed)) and r.Seed(seed) produce identical
// generator state, so minting a fresh stream and re-seeding an existing
// one (Reseed) are interchangeable — reused networks rely on this to
// stay bit-for-bit identical to freshly built ones.
func (s *Source) StreamSeed() int64 {
	if !s.busy.CompareAndSwap(false, true) {
		panic("sim: Source.Stream called concurrently; a Source is single-goroutine — use one Source per simulation cell")
	}
	defer s.busy.Store(false)
	s.next++
	// SplitMix-style stream derivation keeps substreams decorrelated.
	z := uint64(s.seed) + uint64(s.next)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	return int64(z)
}

// Reseed rewinds an existing generator onto the next stream, the
// allocation-free equivalent of replacing it with Stream().
func (s *Source) Reseed(r *rand.Rand) { r.Seed(s.StreamSeed()) }

// Reset re-roots the source at seed with stream numbering restarted, so
// a reused component mints the same stream sequence as a fresh one.
func (s *Source) Reset(seed int64) {
	s.seed = seed
	s.next = 0
}

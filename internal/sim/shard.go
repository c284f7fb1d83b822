package sim

import (
	"runtime"
	"sync"
)

// shardJob is one parallel phase handed to the workers: every worker
// runs fn on its own shard index at the given cycle. The function value
// travels through the channel (rather than living in the worker's
// closure) so parked workers hold no reference to the simulation they
// serve — a ShardGroup's goroutines must not keep an abandoned network
// reachable, or the finalizer that shuts them down could never run.
type shardJob struct {
	now uint64
	fn  func(shard int, now uint64)
}

// ShardGroup is a persistent worker group for the sharded network tick:
// Run dispatches one function invocation per shard, executes shard 0 on
// the calling goroutine, and returns only when every shard has finished
// (a full barrier). The channel hand-off into each worker orders the
// caller's preceding writes before the worker's reads, and the WaitGroup
// join orders every worker's writes before the caller's subsequent
// reads, so the serial phases around a Run see a consistent picture
// without any other synchronization.
//
// On a single-P runtime (GOMAXPROCS=1) the workers could never overlap:
// every cycle would pay the channel hand-offs and goroutine switches
// only to execute the same instructions sequentially. NewShardGroup
// detects that case and runs all shards inline on the calling goroutine
// instead. That is not a different algorithm — sequential ascending
// order is one of the legal schedules of the concurrent protocol (the
// phase functions may not share mutable state across shard indexes
// within a Run, so any execution order gives the same result) — it just
// skips the dispatch. Race-detector builds always keep real workers so
// the detector observes genuine cross-goroutine execution; without
// that, a single-core race run would silently validate nothing.
//
// A group owns n-1 goroutines that park between cycles. They exit when
// Close is called; the network installs a finalizer as a backstop so an
// unclosed group does not leak its workers past the network's lifetime.
type ShardGroup struct {
	n      int
	inline bool
	chans  []chan shardJob
	wg     sync.WaitGroup

	mu     sync.Mutex
	closed bool
}

// NewShardGroup returns a group able to run n shards per cycle: n-1
// parked workers plus the calling goroutine, or a dispatch-free inline
// group when the runtime has a single P (decided once, here — a later
// GOMAXPROCS change does not re-shape an existing group). n must be at
// least 1.
func NewShardGroup(n int) *ShardGroup {
	g := &ShardGroup{n: n}
	if runtime.GOMAXPROCS(0) == 1 && !raceEnabled {
		g.inline = true
		return g
	}
	for i := 1; i < n; i++ {
		ch := make(chan shardJob, 1)
		g.chans = append(g.chans, ch)
		go func(shard int, ch chan shardJob) {
			for j := range ch {
				j.fn(shard, j.now)
				g.wg.Done()
			}
		}(i, ch)
	}
	return g
}

// Inline reports whether the group runs its shards on the calling
// goroutine instead of dispatching to workers (single-P runtimes). The
// observability layer records it so benchmark artifacts say which
// dispatch path they measured.
func (g *ShardGroup) Inline() bool { return g.inline }

// Run executes fn(shard, now) for every shard concurrently and waits for
// all of them. Shard 0 runs on the calling goroutine, so a single-shard
// group degenerates to a plain call. Steady state allocates nothing: the
// job struct travels the channels by value and fn is the same function
// value every cycle.
func (g *ShardGroup) Run(now uint64, fn func(shard int, now uint64)) {
	if g.inline {
		for i := 0; i < g.n; i++ {
			fn(i, now)
		}
		return
	}
	g.wg.Add(len(g.chans))
	for _, ch := range g.chans {
		ch <- shardJob{now: now, fn: fn}
	}
	fn(0, now)
	g.wg.Wait()
}

// Close shuts the workers down. Idempotent; safe to use as a finalizer
// alongside an explicit call.
func (g *ShardGroup) Close() {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.closed {
		return
	}
	g.closed = true
	for _, ch := range g.chans {
		close(ch)
	}
}

package experiments

import (
	"reflect"
	"testing"

	"afcnet/internal/cmp"
	"afcnet/internal/config"
	"afcnet/internal/network"
	"afcnet/internal/runner"
	"afcnet/internal/topology"
	"afcnet/internal/traffic"
)

// pooledCell runs the same open-loop (kind, seed, rate) cell as
// activeSetCell, but through the worker-state reuse path: the network is
// acquired from ws — rewound in place when the worker's previous cell
// had the same kind — and the generator is reattached rather than
// rebuilt. This is the production steady-state path of every sweep
// harness, so equality against the fresh-build no-pool reference proves
// both halves of the memory engine at once (arena recycling and
// cross-cell reuse).
func pooledCell(ws *workerState, kind network.Kind, seed int64, rate float64) activeSetSnap {
	net, gen := pooledGen(ws, kind, seed, rate)
	return runSnap(net, gen, ws.opt)
}

// pooledGen acquires ws's network for (kind, seed) and attaches its
// open-loop generator at rate, reattaching the worker's previous one when
// the network was rewound rather than rebuilt.
func pooledGen(ws *workerState, kind network.Kind, seed int64, rate float64) (*network.Network, *traffic.Generator) {
	e := ws.acquire(network.Config{Kind: kind, Seed: seed, MeterEnergy: true})
	if e.gen == nil {
		e.gen = traffic.NewGenerator(e.net, traffic.Config{Rate: rate}, e.net.RandStream)
	} else {
		e.gen.Reattach(traffic.Config{Rate: rate})
	}
	e.net.AddTicker(e.gen)
	return e.net, e.gen
}

// TestPoolEqualsNoPool is the gate on the memory engine: every network
// kind, four seeds, and three load levels must produce DeepEqual
// measurements under (a) the no-pool reference path — heap-allocated
// flits, a fresh network per cell — and (b) the pooled production path —
// arena recycling plus worker-level network reuse — serial and 8-way
// parallel, with the invariant checker attached. The cell order is
// kind-major, so consecutive cells on a worker share a kind and the
// Reset/Reattach rewind path fires constantly; the drain phase is where
// every recycled flit must come home to the arena.
func TestPoolEqualsNoPool(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every kind x seed x rate three times")
	}
	seeds := []int64{1, 2, 3, 5}
	rates := []float64{0.05, 0.30, 0.55}
	type cellKey struct {
		kind network.Kind
		seed int64
		rate float64
	}
	var cells []cellKey
	for k := network.Kind(0); k < network.NumKinds; k++ {
		for _, seed := range seeds {
			for _, rate := range rates {
				cells = append(cells, cellKey{k, seed, rate})
			}
		}
	}
	base := Options{
		OpenLoopWarmup:  500,
		OpenLoopMeasure: 1500,
		Check:           true,
	}
	runRef := func(parallelism int) []activeSetSnap {
		opt := base
		opt.Parallelism = parallelism
		opt.NoPool = true
		outs, err := runner.Map(len(cells), opt.pool(), func(i int) (activeSetSnap, error) {
			c := cells[i]
			return activeSetCell(c.kind, c.seed, c.rate, opt), nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return outs
	}
	runPooled := func(parallelism int) []activeSetSnap {
		opt := base
		opt.Parallelism = parallelism
		ws := opt.workerStates(opt.pool().Workers(len(cells)))
		outs, err := runner.MapWorkers(len(cells), opt.pool(), func(worker, i int) (activeSetSnap, error) {
			c := cells[i]
			return pooledCell(ws[worker], c.kind, c.seed, c.rate), nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return outs
	}
	ref := runRef(8)
	pooled := runPooled(1)
	pooled8 := runPooled(8)
	for i, c := range cells {
		if !reflect.DeepEqual(ref[i], pooled[i]) {
			t.Errorf("%v seed %d rate %.2f: pooled (serial) diverged from no-pool reference:\nnopool: %+v\npooled: %+v",
				c.kind, c.seed, c.rate, ref[i], pooled[i])
		}
		if !reflect.DeepEqual(ref[i], pooled8[i]) {
			t.Errorf("%v seed %d rate %.2f: pooled (8-way) diverged from no-pool reference:\nnopool: %+v\npooled: %+v",
				c.kind, c.seed, c.rate, ref[i], pooled8[i])
		}
	}
}

// TestPoolLeakOracle is the arena's conservation law: after a cell
// drains, every flit the arena handed out must have been recycled back
// (Live() == 0). A leak here means some consumption point forgot to
// recycle — invisible to the equality tests (results stay correct, the
// pool just silently degrades to the allocator) but fatal to the
// zero-allocation steady state. The single worker state reuses one
// network per kind across seeds, so the oracle also covers Reset's
// Reclaim barrier.
func TestPoolLeakOracle(t *testing.T) {
	opt := Options{
		OpenLoopWarmup:  400,
		OpenLoopMeasure: 1200,
		Check:           true,
	}
	ws := opt.workerStates(1)[0]
	for k := network.Kind(0); k < network.NumKinds; k++ {
		for _, seed := range []int64{1, 7} {
			snap := pooledCell(ws, k, seed, 0.30)
			if !snap.Drained {
				t.Errorf("%v seed %d: did not drain", k, seed)
				continue
			}
			a := ws.ents[k].net.Arena()
			if a == nil {
				t.Fatalf("%v seed %d: pooled network has no arena", k, seed)
			}
			if live := a.Live(); live != 0 {
				t.Errorf("%v seed %d: %d flits still checked out after drain (pool leak)", k, seed, live)
			}
		}
	}
}

// TestPoolLeakOracleSharded is the conservation law through the shard
// magazines: the same oracle at shard counts 2 and 8 on an 8x8 mesh (so
// 8 is genuinely eight one-row bands, not a clamp). Live() sums the
// per-magazine deltas — a flit packetized on one shard and recycled on
// another cancels across the sum — so a zero here proves the shard-local
// free lists conserve blocks under migration. The two seeds per kind
// reuse one network through Reset, which exercises Reclaim's
// magazine-aware path: parked shard stock and in-flight handles must
// both come home to the shared reserve, or the second cell leaks.
func TestPoolLeakOracleSharded(t *testing.T) {
	for _, shards := range []int{2, 8} {
		opt := Options{
			OpenLoopWarmup:  400,
			OpenLoopMeasure: 1200,
			Check:           true,
			Shards:          shards,
			System:          config.DefaultWithMesh(topology.NewMesh(8, 8)),
		}
		ws := opt.workerStates(1)[0]
		for k := network.Kind(0); k < network.NumKinds; k++ {
			for _, seed := range []int64{1, 7} {
				snap := pooledCell(ws, k, seed, 0.30)
				if !snap.Drained {
					t.Errorf("%v seed %d shards %d: did not drain", k, seed, shards)
					continue
				}
				net := ws.ents[k].net
				if net.ShardCount() != shards {
					t.Fatalf("%v seed %d: network runs %d shards, want %d", k, seed, net.ShardCount(), shards)
				}
				a := net.Arena()
				if a == nil {
					t.Fatalf("%v seed %d shards %d: pooled network has no arena", k, seed, shards)
				}
				if live := a.Live(); live != 0 {
					t.Errorf("%v seed %d shards %d: %d flits still checked out after drain (magazine leak)",
						k, seed, shards, live)
				}
			}
			ws.ents[k].net.Close()
		}
	}
}

// TestClosedLoopPoolEqualsNoPoolShort is the short-mode slice of the
// pool gate for the closed-loop path: ClosedLoop with two seeds per
// kind reuses each worker's network and CMP substrate (acquire +
// cmp.Reattach) for the second seed, and the pooled results must
// DeepEqual the no-pool run of the same cells. The full gate
// (TestPoolEqualsNoPool) covers every kind, seed and rate but is
// skipped under -short.
func TestClosedLoopPoolEqualsNoPoolShort(t *testing.T) {
	opt := Options{
		Seeds:       []int64{1, 2},
		WarmupTx:    100,
		MeasureTx:   300,
		CycleLimit:  2_000_000,
		Parallelism: 1,
		Check:       true,
	}
	benches := cmp.LowLoad()[:1]
	kinds := []network.Kind{network.Backpressured, network.AFC}
	pooled, err := ClosedLoop(benches, kinds, opt)
	if err != nil {
		t.Fatal(err)
	}
	opt.NoPool = true
	nopool, err := ClosedLoop(benches, kinds, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(pooled, nopool) {
		t.Errorf("pooled closed-loop run diverged from no-pool:\npooled: %+v\nnopool: %+v", pooled, nopool)
	}

	// The one-shot path the ablation harnesses use shares the same cell
	// code without cross-cell reuse; it must agree too.
	opt.NoPool = false
	res, net, err := runCell(benches[0], network.AFC, 1, opt)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles == 0 {
		t.Error("one-shot cell measured zero cycles")
	}
	if net.Arena() == nil {
		t.Error("one-shot pooled cell built a network without an arena")
	}
}

package experiments

import (
	"testing"

	"afcnet/internal/config"
	"afcnet/internal/network"
	"afcnet/internal/topology"
	"afcnet/internal/traffic"
)

// pooledCell runs the same open-loop (kind, seed, rate) cell as
// activeSetCell, but through the worker-state reuse path: the network is
// acquired from ws — rewound in place when the worker's previous cell
// had the same kind — and the generator is reattached rather than
// rebuilt. This is the production steady-state path of every sweep
// harness.
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
	ws := opt.newWorkerState()
	for k := network.Kind(0); k < network.NumKinds; k++ {
		for _, seed := range []int64{1, 7} {
			snap := pooledCell(ws, k, seed, 0.30)
			if !snap.Drained {
				t.Errorf("%v seed %d: did not drain", k, seed)
				continue
			}
			if live := ws.ents[k].net.Arena().Live(); live != 0 {
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
		ws := opt.newWorkerState()
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
				if live := net.Arena().Live(); live != 0 {
					t.Errorf("%v seed %d shards %d: %d flits still checked out after drain (magazine leak)",
						k, seed, shards, live)
				}
			}
			ws.ents[k].net.Close()
		}
	}
}

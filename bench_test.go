// Benchmarks of the simulation kernel and of the paper's evaluation.
// The kernel-step cells (BenchmarkKernelStep*) measure one network's
// cycle; make bench-json records them and make bench-smoke gates them.
// BenchmarkArtifact/<name> runs what `figures -quick -fig <name>` runs,
// one sub-benchmark per artifact of internal/experiments' registry
// (DESIGN.md maps experiment IDs to the names; recorded results live in
// EXPERIMENTS.md):
//
//	go test -run '^$' -bench 'Artifact/2c' .
package afcnet_test

import (
	"runtime"
	"sort"
	"testing"

	"afcnet/internal/check"
	"afcnet/internal/cmp"
	"afcnet/internal/config"
	"afcnet/internal/experiments"
	"afcnet/internal/network"
	"afcnet/internal/topology"
	"afcnet/internal/traffic"
)

func quick() experiments.Options { return experiments.Quick() }

// reportKind attaches a per-kind metric, e.g. perf/afc.
func reportKind(b *testing.B, ms []experiments.Measurement, metric string, get func(experiments.Measurement) float64) {
	b.Helper()
	agg := map[network.Kind]*struct {
		sum float64
		n   int
	}{}
	for _, m := range ms {
		a := agg[m.Kind]
		if a == nil {
			a = &struct {
				sum float64
				n   int
			}{}
			agg[m.Kind] = a
		}
		a.sum += get(m)
		a.n++
	}
	// Report in a fixed order: map iteration order would otherwise shuffle
	// the metric lines between runs, which breaks diffing benchstat output.
	kinds := make([]network.Kind, 0, len(agg))
	for k := range agg {
		kinds = append(kinds, k)
	}
	sort.Slice(kinds, func(i, j int) bool { return kinds[i].String() < kinds[j].String() })
	for _, k := range kinds {
		a := agg[k]
		b.ReportMetric(a.sum/float64(a.n), metric+"/"+k.String())
	}
}

// stepCell is one kernel-step benchmark cell: a kind network on a
// side×side mesh under uniform open-loop load at rate, warmed up for
// warmup cycles before b.N single steps are timed. shards > 1 runs the
// sharded tick, and checked attaches the invariant checker.
type stepCell struct {
	kind    network.Kind
	side    int
	rate    float64
	warmup  uint64
	shards  int
	checked bool
}

// The kernel-step cells. Uniform traffic on a k×k mesh is
// bisection-limited at ~2/k flits/node/cycle, so the rate falls as the
// mesh grows (16×16 saturates near 0.12; 0.3 would sit past saturation,
// where queues — and allocations — grow without bound and no steady
// state exists), and the warmup grows with the fill time.
var (
	step3x3     = stepCell{kind: network.AFC, side: 3, rate: 0.3, warmup: 1000}
	stepLowLoad = stepCell{kind: network.AFC, side: 3, rate: 0.02, warmup: 1000}
	step16x16   = stepCell{kind: network.AFC, side: 16, rate: 0.08, warmup: 5000}
	step32x32   = stepCell{kind: network.AFC, side: 32, rate: 0.04, warmup: 8000}
	step64x64   = stepCell{kind: network.AFC, side: 64, rate: 0.02, warmup: 16000}
)

// warmCell is the network of the last kernel-step cell run. testing
// calls a benchmark function once at b.N = 1 and again for each larger
// b.N, always for one benchmark before the next; keeping the warmed
// network across those calls warms each cell once per process instead
// of once per call, which is most of a large cell's run time. procs is
// part of the key because a sharded network picks inline dispatch from
// GOMAXPROCS when it is built (a -cpu list changes it between runs).
var warmCell struct {
	cell  stepCell
	procs int
	net   *network.Network
}

// network returns c's network, built and warmed to steady state on the
// first call for c and stepped on from where the last call left it.
func (c stepCell) network() *network.Network {
	procs := runtime.GOMAXPROCS(0)
	if warmCell.net != nil && warmCell.cell == c && warmCell.procs == procs {
		return warmCell.net
	}
	if warmCell.net != nil {
		warmCell.net.Close()
	}
	net := network.New(network.Config{
		Kind: c.kind, Seed: 1, MeterEnergy: true, Shards: c.shards,
		System: config.DefaultWithMesh(topology.NewMesh(c.side, c.side)),
	})
	if c.checked {
		check.Attach(net)
	}
	gen := traffic.NewGenerator(net, traffic.Config{
		Pattern: traffic.Uniform{Mesh: net.Mesh()},
		Rate:    c.rate,
	}, net.RandStream)
	net.AddTicker(gen)
	net.Run(c.warmup) // reach steady state before measuring
	warmCell.cell, warmCell.procs, warmCell.net = c, procs, net
	return net
}

func (c stepCell) run(b *testing.B) {
	net := c.network()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.Step()
	}
}

// BenchmarkKernelStep measures the per-cycle cost of the simulation
// kernel itself: one AFC network under moderate uniform open-loop load,
// stepped cycle by cycle. This is the inner loop every harness above
// amplifies; run it with -benchmem to track hot-path allocation cost.
func BenchmarkKernelStep(b *testing.B) { step3x3.run(b) }

// BenchmarkKernelStep16x16 is BenchmarkKernelStep on a 16x16 mesh — the
// large-radix regime the slab-resident router state targets (the
// paper's own evaluation stops at 3x3; the deflection literature it
// builds on lives at 64-1024 nodes). The per-cycle cost scales with the
// router count, so expect roughly 256/9 of the 3x3 number; what this
// bench tracks is that the per-router cost does not degrade with radix
// and that the steady state stays allocation-free at scale.
func BenchmarkKernelStep16x16(b *testing.B) { step16x16.run(b) }

// BenchmarkKernelStepKinds is the kernel step of every router kind,
// serial, on the cells of BenchmarkKernelStep and
// BenchmarkKernelStep16x16 (BenchmarkKernelStepKinds/3x3/afc is
// BenchmarkKernelStep's network), so the cost of backpressured against
// backpressureless routers is measured rather than assumed. make
// bench-layers runs it with -benchmem and fails on any allocs/op in any
// cell. 16x16/backpressureless-drop has no steady state: the drop kind
// saturates at about 0.05 flits/node/cycle on a 16x16 mesh, below the
// cell's rate of 0.08, so its source backlog grows for as long as it
// runs. It still reads 0 allocs/op because a backlogged packet is a
// descriptor in its NI's ring, packetized only when it reaches the head
// of its queue: the growth is a ring doubling now and then, not an arena
// block per queued packet, and shows only in B/op.
func BenchmarkKernelStepKinds(b *testing.B) {
	for _, m := range []struct {
		name string
		cell stepCell
	}{{"3x3", step3x3}, {"16x16", step16x16}} {
		for k := network.Kind(0); k < network.NumKinds; k++ {
			c := m.cell
			c.kind = k
			b.Run(m.name+"/"+k.String(), c.run)
		}
	}
}

// BenchmarkKernelStep16x16Sharded is BenchmarkKernelStep16x16 through
// the sharded tick at 8 shards (two rows per band) — the regime the
// two-phase barrier targets: one large network whose cycle is wide
// enough to split across cores. Results are bit-identical to the serial
// bench's network (the 8x8 sharded slice pinned by
// TestShardedEqualsSerial); what this bench tracks is the wall-clock
// ratio against BenchmarkKernelStep16x16 (on a single-core host the
// barrier is pure overhead and the ratio inverts) and that the parallel
// arena keeps the steady state allocation-free (make bench-layers).
func BenchmarkKernelStep16x16Sharded(b *testing.B) {
	c := step16x16
	c.shards = 8
	c.run(b)
}

// BenchmarkKernelStep32x32 scales the large-radix cell to a 32x32 mesh
// (1024 nodes) — the first record at this size. The injection rate
// halves again from the 16x16 cell's: uniform traffic on a k x k mesh
// is bisection-limited at ~2/k flits/node/cycle, so 32x32 saturates
// near 0.06 and 0.04 keeps the cell sub-saturation with a real steady
// state. The warmup stretches to 8000 cycles because the bigger mesh
// takes proportionally longer to fill (~21 average hops).
func BenchmarkKernelStep32x32(b *testing.B) { step32x32.run(b) }

// BenchmarkKernelStep32x32Sharded is BenchmarkKernelStep32x32 through
// the sharded tick at 8 shards (four rows per band). At this width each
// band is ~4x the 16x16 bench's, so the per-cycle parallel grain is
// coarser and the fixed dispatch cost proportionally smaller — the
// regime where the sharded tick should scale best. make bench-smoke
// fails when, with GOMAXPROCS >= 2, it is not faster than
// BenchmarkKernelStep32x32.
func BenchmarkKernelStep32x32Sharded(b *testing.B) {
	c := step32x32
	c.shards = 8
	c.run(b)
}

// BenchmarkKernelStep64x64 scales the large-radix cell to a 64x64 mesh
// (4096 nodes) — the kilonode record, and the regime the slab-resident
// router state targets: at this size the per-router hot structs alone
// outgrow every cache level, so band-major slab locality is what keeps
// the per-cycle cost near 4x the 32x32 cell's instead of far above it.
// The injection rate halves again (bisection-limited near 0.03) and the
// warmup doubles to 16000 cycles (~42 average hops to fill).
func BenchmarkKernelStep64x64(b *testing.B) { step64x64.run(b) }

// BenchmarkKernelStep64x64Sharded is BenchmarkKernelStep64x64 through
// the sharded tick at 8 shards (eight rows per band): the coarsest
// parallel grain the repo records, where each band's 512-router working
// set makes the fixed barrier cost smallest relative to useful work.
func BenchmarkKernelStep64x64Sharded(b *testing.B) {
	c := step64x64
	c.shards = 8
	c.run(b)
}

// BenchmarkKernelStepLowLoad is BenchmarkKernelStep at a near-idle
// injection rate — the regime where active-set scheduling pays: most
// routers are quiescent most cycles, so the per-cycle cost should be a
// small fraction of BenchmarkKernelStep's.
func BenchmarkKernelStepLowLoad(b *testing.B) { stepLowLoad.run(b) }

// BenchmarkKernelStepChecked is BenchmarkKernelStep with the
// internal/check invariant checker attached. The checker is a plain
// AddTicker client, so the default path (checks off) is untouched;
// comparing the two benches measures the -check overhead reported in
// EXPERIMENTS.md.
func BenchmarkKernelStepChecked(b *testing.B) {
	c := step3x3
	c.checked = true
	c.run(b)
}

// BenchmarkFig2aLowLoadPerformance regenerates Figure 2(a): normalized
// performance of the low-load (SPLASH-2) benchmarks. Paper shape: flow
// control has no meaningful performance impact at low load. make
// bench-smoke's heap check runs it, so its name and its work stay.
func BenchmarkFig2aLowLoadPerformance(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ms, err := experiments.ClosedLoop(cmp.LowLoad(), experiments.Fig2Kinds, quick())
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			reportKind(b, ms, "perf", func(m experiments.Measurement) float64 { return m.Perf })
		}
	}
}

// BenchmarkArtifact runs each artifact of the evaluation's registry
// alone, with figures' parameters at Quick() lengths. `figures -quick
// -fig <name>` prints the rows it computes.
func BenchmarkArtifact(b *testing.B) {
	for _, name := range experiments.Artifacts() {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := experiments.Evaluate(quick(), name); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationDropVsDeflect regenerates the Section II claim that
// the drop-based backpressureless variant saturates at lower loads than
// deflection.
func BenchmarkAblationDropVsDeflect(b *testing.B) {
	rates := []float64{0.15, 0.25, 0.35, 0.45, 0.55}
	for i := 0; i < b.N; i++ {
		pts := experiments.LatencySweep(
			[]network.Kind{network.Bless, network.BlessDrop}, rates, quick())
		if i == b.N-1 {
			sat := experiments.SaturationThroughput(pts)
			b.ReportMetric(sat[network.Bless], "satThroughput/deflect")
			b.ReportMetric(sat[network.BlessDrop], "satThroughput/drop")
		}
	}
}

// Command benchjson measures the simulator's performance envelope and
// records it as a numbered BENCH_<n>.json snapshot, so the perf
// trajectory of the repo is tracked in-tree alongside the results it
// produces (EXPERIMENTS.md).
//
// Two kinds of numbers are captured:
//
//   - kernel microbenchmarks: ns/op and allocs/op of Network.Step under
//     moderate (0.3 flits/node/cycle) and near-idle (0.02) open-loop
//     load — the latter is the regime active-set scheduling targets;
//   - cell wall times: end-to-end wall-clock seconds of representative
//     closed-loop cells (the low-load Fig. 2a set, its single
//     lowest-load benchmark, and a saturation benchmark), each run
//     -runs times with the minimum recorded, since the minimum is the
//     least noisy wall-clock statistic.
//
// Usage:
//
//	benchjson                    # measure, write BENCH_<n>.json (next free n)
//	benchjson -o my.json         # explicit output path
//	benchjson -smoke             # reduced run compared vs the newest
//	                             # BENCH_*.json (CI bench-smoke gate)
//
// -smoke performs a benchstat-style threshold comparison against the
// recorded baseline: each metric's delta is printed. Wall-clock
// regressions beyond the threshold are flagged as warnings (warn-only —
// shared machines make wall time noisy). Two metric classes FAIL the run
// with a non-zero exit: allocation regressions (allocs/op, per-cell heap
// bytes — the steady state is zero-allocation by construction, so any
// growth is a real leak of the pooling discipline, not noise), and the
// moderate-load kernel step ns/op when it exceeds 1.15x the recorded
// baseline (the repo's headline perf number; the generous ratio absorbs
// shared-machine noise while still catching real regressions).
//
// Snapshot schema: every snapshot is afcnet-bench/v5 (snapshotSchema);
// one recorded under an earlier schema was rewritten into it, and a
// metric its measurement predates reads zero, which every consumer
// treats as "skip". The kernel cells are the 3x3 steps, the 16x16 pair
// (serial and sharded at kernel.shards row bands, with the host's core
// count, since the sharded number is only meaningful relative to the
// serial one on the same machine width), and the 32x32 and 64x64 pairs,
// recorded in full runs only — smoke runs skip them for CI speed.
//
// The sharded ratios are judged on both ends of the machine-width
// spectrum: hosts with at least as many CPUs as shards must show a live
// >= 1.5x speedup on the 16x16 pair (the barrier must pay; the margin
// absorbs machine noise), and the baseline's recorded pairs must stay
// under per-pair single-core overhead bounds, judged deterministically
// from the file (with inline dispatch the sharded tick is the same work
// in a different order plus a fixed per-cycle tail; the bound is 1.15x
// for the 16x16 pair, where the tail is a real fraction of the
// slab-accelerated cycle, and 1.05x for the 32x32 pair, where it
// amortizes to parity within host noise). Kernel cells are recorded as
// the fastest of three repetitions — the same minimum statistic the
// wall cells use — so the recorded ratios are stable enough to gate.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"testing"
	"time"

	"afcnet/internal/cmp"
	"afcnet/internal/config"
	"afcnet/internal/experiments"
	"afcnet/internal/network"
	"afcnet/internal/topology"
	"afcnet/internal/traffic"
)

// Snapshot is the recorded BENCH_<n>.json schema.
type Snapshot struct {
	Schema    string `json:"schema"`
	Label     string `json:"label,omitempty"`
	GoVersion string `json:"goVersion"`
	// Cores/MaxProcs record the machine width the snapshot was taken
	// on: the sharded kernel number is a function of it.
	Cores    int `json:"cores,omitempty"`
	MaxProcs int `json:"maxProcs,omitempty"`
	Runs     int `json:"runs"`

	Kernel struct {
		StepNsPerOp            float64 `json:"stepNsPerOp"`
		StepAllocsPerOp        float64 `json:"stepAllocsPerOp"`
		StepLowLoadNsPerOp     float64 `json:"stepLowLoadNsPerOp"`
		StepLowLoadAllocsPerOp float64 `json:"stepLowLoadAllocsPerOp"`
		// Step16x16NsPerOp is the large-radix kernel number: one step of
		// a 16x16 mesh under sub-saturation uniform load (0.08
		// flits/node/cycle; see BenchmarkKernelStep16x16). Zero in
		// snapshots that predate the cell.
		Step16x16NsPerOp     float64 `json:"kernelStep16x16NsPerOp"`
		Step16x16AllocsPerOp float64 `json:"kernelStep16x16AllocsPerOp"`
		// Shards and the sharded-step fields measure the same 16x16 cell
		// through the sharded two-phase tick at Shards row bands.
		// Bit-identical results to the serial cell by construction
		// (TestShardedEqualsSerial); the interesting quantities are the
		// ns/op ratio against Step16x16NsPerOp on a multi-core host and
		// the allocs/op, which the parallel arena must keep at zero.
		Shards                      int     `json:"shards,omitempty"`
		Step16x16ShardedNsPerOp     float64 `json:"kernelStep16x16ShardedNsPerOp"`
		Step16x16ShardedAllocsPerOp float64 `json:"kernelStep16x16ShardedAllocsPerOp"`
		// The 32x32 pair is the same serial/sharded cell at 1024 nodes
		// and 0.04 flits/node/cycle (the bigger mesh's bisection limit
		// halves again; see BenchmarkKernelStep32x32). Zero in smoke
		// runs, which skip the cell for CI speed.
		Step32x32NsPerOp            float64 `json:"kernelStep32x32NsPerOp,omitempty"`
		Step32x32AllocsPerOp        float64 `json:"kernelStep32x32AllocsPerOp,omitempty"`
		Step32x32ShardedNsPerOp     float64 `json:"kernelStep32x32ShardedNsPerOp,omitempty"`
		Step32x32ShardedAllocsPerOp float64 `json:"kernelStep32x32ShardedAllocsPerOp,omitempty"`
		// The 64x64 pair is the kilonode record: 4096 nodes at 0.02
		// flits/node/cycle, the regime the slab-resident router state
		// targets (see BenchmarkKernelStep64x64). Full runs only, like
		// the 32x32 pair.
		Step64x64NsPerOp            float64 `json:"kernelStep64x64NsPerOp,omitempty"`
		Step64x64AllocsPerOp        float64 `json:"kernelStep64x64AllocsPerOp,omitempty"`
		Step64x64ShardedNsPerOp     float64 `json:"kernelStep64x64ShardedNsPerOp,omitempty"`
		Step64x64ShardedAllocsPerOp float64 `json:"kernelStep64x64ShardedAllocsPerOp,omitempty"`
		// SteadyAllocsPerOp is the worst (max) of the steady-state
		// allocs/op measurements above — the single number the smoke
		// gate compares. With pooling on this is 0 by construction.
		SteadyAllocsPerOp float64 `json:"steadyAllocsPerOp"`
	} `json:"kernel"`

	// The per-cell TotalAllocBytes fields record the heap bytes
	// allocated during the fastest repetition of each wall-time cell
	// (runtime.MemStats.TotalAlloc delta; the minimum over -runs, like
	// the wall times). With pooling these are dominated by one-time
	// network construction; steady-state growth shows up here first.
	Cells struct {
		LowLoadWallSeconds         float64 `json:"lowLoadWallSeconds"`
		LowLoadCellWallSecs        float64 `json:"lowLoadCellWallSeconds"`
		SaturationWallSeconds      float64 `json:"saturationWallSeconds"`
		LowLoadTotalAllocBytes     uint64  `json:"lowLoadTotalAllocBytes"`
		LowLoadCellTotalAllocBytes uint64  `json:"lowLoadCellTotalAllocBytes"`
		SaturationTotalAllocBytes  uint64  `json:"saturationTotalAllocBytes"`
	} `json:"cells"`
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("benchjson: ")
	var (
		out      = flag.String("o", "", "output path (default: next free BENCH_<n>.json in the current directory)")
		runs     = flag.Int("runs", 5, "repetitions per wall-time cell; the minimum is recorded")
		label    = flag.String("label", "", "free-text label recorded in the snapshot")
		smoke    = flag.Bool("smoke", false, "reduced measurement compared warn-only against -baseline; writes no file")
		baseline = flag.String("baseline", "", "baseline snapshot for -smoke (default: the highest-numbered BENCH_*.json)")
	)
	flag.Parse()

	if *smoke {
		if err := runSmoke(*baseline); err != nil {
			log.Fatal(err)
		}
		return
	}

	snap := measure(*runs, *label, false)
	path := *out
	if path == "" {
		path = nextBenchPath(".")
	}
	buf, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote %s\n", path)
}

// measure runs the benchmark suite. In smoke mode the wall cells drop to
// the single low-load cell and fewer repetitions, so CI stays fast.
func measure(runs int, label string, smoke bool) Snapshot {
	var s Snapshot
	s.Schema = snapshotSchema
	s.Label = label
	s.GoVersion = runtime.Version()
	s.Cores = runtime.NumCPU()
	s.MaxProcs = runtime.GOMAXPROCS(0)
	s.Runs = runs

	// Kernel cells are recorded as the fastest of three repetitions —
	// the same minimum statistic the wall cells use — because on a
	// shared host a single auto-scaled run swings ±10%, which is wider
	// than the serial/sharded ratios the snapshot exists to track.
	// Smoke runs keep one repetition: their thresholds absorb the noise.
	reps := 3
	if smoke {
		reps = 1
	}
	r := benchMin(reps, func(b *testing.B) { benchStep(b, 0.3, 3, 1000, 0) })
	s.Kernel.StepNsPerOp = float64(r.NsPerOp())
	s.Kernel.StepAllocsPerOp = float64(r.AllocsPerOp())
	r = benchMin(reps, func(b *testing.B) { benchStep(b, 0.02, 3, 1000, 0) })
	s.Kernel.StepLowLoadNsPerOp = float64(r.NsPerOp())
	s.Kernel.StepLowLoadAllocsPerOp = float64(r.AllocsPerOp())
	// Large-radix cell: 16x16 under sub-saturation uniform load (0.3
	// would sit past the bisection limit of the bigger mesh, where queues
	// and allocations grow without bound; see BenchmarkKernelStep16x16).
	r = benchMin(reps, func(b *testing.B) { benchStep(b, 0.08, 16, 5000, 0) })
	s.Kernel.Step16x16NsPerOp = float64(r.NsPerOp())
	s.Kernel.Step16x16AllocsPerOp = float64(r.AllocsPerOp())
	// The same cell through the sharded tick, eight two-row bands
	// (see BenchmarkKernelStep16x16Sharded).
	s.Kernel.Shards = 8
	r = benchMin(reps, func(b *testing.B) { benchStep(b, 0.08, 16, 5000, s.Kernel.Shards) })
	s.Kernel.Step16x16ShardedNsPerOp = float64(r.NsPerOp())
	s.Kernel.Step16x16ShardedAllocsPerOp = float64(r.AllocsPerOp())
	// The 32x32 and 64x64 pairs are full-run records only: the cells
	// need long warmups (the meshes take thousands of cycles to fill)
	// and smoke runs gate on the cheaper 16x16 pair instead.
	if !smoke {
		r = benchMin(reps, func(b *testing.B) { benchStep(b, 0.04, 32, 8000, 0) })
		s.Kernel.Step32x32NsPerOp = float64(r.NsPerOp())
		s.Kernel.Step32x32AllocsPerOp = float64(r.AllocsPerOp())
		r = benchMin(reps, func(b *testing.B) { benchStep(b, 0.04, 32, 8000, s.Kernel.Shards) })
		s.Kernel.Step32x32ShardedNsPerOp = float64(r.NsPerOp())
		s.Kernel.Step32x32ShardedAllocsPerOp = float64(r.AllocsPerOp())
		r = benchMin(reps, func(b *testing.B) { benchStep(b, 0.02, 64, 16000, 0) })
		s.Kernel.Step64x64NsPerOp = float64(r.NsPerOp())
		s.Kernel.Step64x64AllocsPerOp = float64(r.AllocsPerOp())
		r = benchMin(reps, func(b *testing.B) { benchStep(b, 0.02, 64, 16000, s.Kernel.Shards) })
		s.Kernel.Step64x64ShardedNsPerOp = float64(r.NsPerOp())
		s.Kernel.Step64x64ShardedAllocsPerOp = float64(r.AllocsPerOp())
	}
	s.Kernel.SteadyAllocsPerOp = s.Kernel.StepAllocsPerOp
	for _, a := range []float64{
		s.Kernel.StepLowLoadAllocsPerOp,
		s.Kernel.Step16x16AllocsPerOp, s.Kernel.Step16x16ShardedAllocsPerOp,
		s.Kernel.Step32x32AllocsPerOp, s.Kernel.Step32x32ShardedAllocsPerOp,
		s.Kernel.Step64x64AllocsPerOp, s.Kernel.Step64x64ShardedAllocsPerOp,
	} {
		if a > s.Kernel.SteadyAllocsPerOp {
			s.Kernel.SteadyAllocsPerOp = a
		}
	}

	opt := experiments.Quick()
	opt.Parallelism = 1 // wall times must not depend on machine width
	s.Cells.LowLoadCellWallSecs, s.Cells.LowLoadCellTotalAllocBytes = minWall(runs, func() {
		mustClosedLoop(cmp.LowLoad()[:1], opt)
	})
	if !smoke {
		s.Cells.LowLoadWallSeconds, s.Cells.LowLoadTotalAllocBytes = minWall(runs, func() {
			mustClosedLoop(cmp.LowLoad(), opt)
		})
		s.Cells.SaturationWallSeconds, s.Cells.SaturationTotalAllocBytes = minWall(runs, func() {
			mustClosedLoop(cmp.HighLoad()[:1], opt)
		})
	}
	return s
}

// benchMin runs f through testing.Benchmark reps times and returns the
// repetition with the fastest ns/op — on a shared host the fastest
// repetition is the one least perturbed by neighbors, the same reason
// the wall cells record their minimum. Allocs come from that same
// repetition; steady-state allocs are deterministic, so the choice
// cannot hide an allocation.
func benchMin(reps int, f func(b *testing.B)) testing.BenchmarkResult {
	var best testing.BenchmarkResult
	for i := 0; i < reps; i++ {
		r := testing.Benchmark(f)
		if i == 0 || r.NsPerOp() < best.NsPerOp() {
			best = r
		}
	}
	return best
}

// benchStep is the cmd-side mirror of BenchmarkKernelStep /
// BenchmarkKernelStep16x16 in bench_test.go (test files cannot be
// imported from a command).
func benchStep(b *testing.B, rate float64, side, warmup, shards int) {
	net := network.New(network.Config{
		Kind: network.AFC, Seed: 1, MeterEnergy: true,
		System: config.DefaultWithMesh(topology.NewMesh(side, side)),
		Shards: shards,
	})
	defer net.Close()
	gen := traffic.NewGenerator(net, traffic.Config{
		Pattern: traffic.Uniform{Mesh: net.Mesh()},
		Rate:    rate,
	}, net.RandStream)
	net.AddTicker(gen)
	net.Run(uint64(warmup))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.Step()
	}
}

func mustClosedLoop(benches []cmp.Params, opt experiments.Options) {
	if _, err := experiments.ClosedLoop(benches, experiments.Fig2Kinds, opt); err != nil {
		log.Fatal(err)
	}
}

// minWall runs f n times and returns the fastest wall time in seconds
// plus the heap bytes allocated (TotalAlloc delta) during that fastest
// repetition — the least noisy statistic for each.
func minWall(n int, f func()) (float64, uint64) {
	best := time.Duration(0)
	var bestAlloc uint64
	var ms runtime.MemStats
	for i := 0; i < n; i++ {
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		start := time.Now()
		f()
		d := time.Since(start)
		runtime.ReadMemStats(&ms)
		if best == 0 || d < best {
			best = d
			bestAlloc = ms.TotalAlloc - before
		}
	}
	return best.Seconds(), bestAlloc
}

// snapshotSchema is the one schema benchjson writes and reads. A
// snapshot of any other schema is rejected loudly instead of silently
// zero-filling the metrics this binary does not know about.
const snapshotSchema = "afcnet-bench/v5"

// parseSnapshot decodes a recorded BENCH_<n>.json.
func parseSnapshot(buf []byte) (Snapshot, error) {
	var s Snapshot
	if err := json.Unmarshal(buf, &s); err != nil {
		return Snapshot{}, err
	}
	if s.Schema != snapshotSchema {
		return Snapshot{}, fmt.Errorf("unknown schema %q", s.Schema)
	}
	return s, nil
}

var benchName = regexp.MustCompile(`^BENCH_(\d+)\.json$`)

// nextBenchPath returns BENCH_<n>.json for the smallest n above every
// existing snapshot in dir.
func nextBenchPath(dir string) string {
	next := 0
	for _, p := range benchFiles(dir) {
		n, _ := strconv.Atoi(benchName.FindStringSubmatch(filepath.Base(p))[1])
		if n >= next {
			next = n + 1
		}
	}
	return filepath.Join(dir, fmt.Sprintf("BENCH_%d.json", next))
}

// benchFiles lists the BENCH_<n>.json snapshots in dir, ordered by n.
func benchFiles(dir string) []string {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil
	}
	var out []string
	for _, e := range ents {
		if benchName.MatchString(e.Name()) {
			out = append(out, filepath.Join(dir, e.Name()))
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, _ := strconv.Atoi(benchName.FindStringSubmatch(filepath.Base(out[i]))[1])
		b, _ := strconv.Atoi(benchName.FindStringSubmatch(filepath.Base(out[j]))[1])
		return a < b
	})
	return out
}

// runSmoke measures the reduced suite and prints a benchstat-style
// comparison against the baseline snapshot. Wall-clock metrics are
// warn-only; allocation metrics fail the run (non-zero exit) when they
// regress, because the steady state is zero-allocation by construction
// and any growth is a pooling leak, not measurement noise. The
// moderate-load kernel step ns/op also fails past 1.15x the baseline —
// it is the repo's headline perf number, and the generous ratio absorbs
// shared-machine noise. Metrics a baseline lacks (zero) are skipped.
func runSmoke(baselinePath string) error {
	if baselinePath == "" {
		files := benchFiles(".")
		if len(files) == 0 {
			fmt.Println("bench-smoke: no BENCH_*.json baseline recorded yet; measuring only")
		} else {
			baselinePath = files[len(files)-1]
		}
	}
	cur := measure(2, "", true)

	if baselinePath == "" {
		fmt.Printf("kernel step: %.0f ns/op (%.0f allocs); low load: %.0f ns/op; low-load cell: %.3fs\n",
			cur.Kernel.StepNsPerOp, cur.Kernel.StepAllocsPerOp,
			cur.Kernel.StepLowLoadNsPerOp, cur.Cells.LowLoadCellWallSecs)
		return nil
	}
	buf, err := os.ReadFile(baselinePath)
	if err != nil {
		return err
	}
	base, err := parseSnapshot(buf)
	if err != nil {
		return fmt.Errorf("%s: %v", baselinePath, err)
	}
	fmt.Printf("bench-smoke vs %s (wall warn-only; allocs and step ns/op failing)\n", baselinePath)
	warned, failed := false, false
	// Wall-clock numbers swing far more than ns/op on shared machines,
	// so each metric carries its own threshold. A baseline of 0 means
	// the baseline's measurement predates the metric; skip it rather
	// than divide by zero — except for allocation
	// metrics, where 0 is the contract: any current value above the
	// threshold regresses even against a zero baseline.
	deltaPct := func(baseV, curV float64) float64 {
		if baseV == 0 {
			if curV == 0 {
				return 0
			}
			return 100
		}
		return (curV - baseV) / baseV * 100
	}
	compare := func(name string, baseV, curV, threshold float64) {
		if baseV == 0 {
			return
		}
		delta := deltaPct(baseV, curV)
		mark := ""
		if delta > threshold {
			mark = "  <-- WARN: exceeds +" + strconv.FormatFloat(threshold, 'f', -1, 64) + "% threshold"
			warned = true
		}
		fmt.Printf("  %-24s %12.1f -> %12.1f  (%+.1f%%)%s\n", name, baseV, curV, delta, mark)
	}
	// compareAlloc is the failing variant: exceeding the threshold sets
	// failed, which becomes a non-zero exit. Comparisons against a
	// pre-pooling baseline (recorded with allocating flits) would
	// trivially pass, so the gate also enforces the absolute contract
	// when measuring the pooled configuration: see the gate below.
	compareAlloc := func(name string, baseV, curV, threshold float64) {
		delta := deltaPct(baseV, curV)
		mark := ""
		if curV > baseV && delta > threshold {
			mark = "  <-- FAIL: allocation regression beyond +" + strconv.FormatFloat(threshold, 'f', -1, 64) + "%"
			failed = true
		}
		fmt.Printf("  %-24s %12.1f -> %12.1f  (%+.1f%%)%s\n", name, baseV, curV, delta, mark)
	}
	// compareFail promotes a metric from warn to FAIL past its threshold:
	// the moderate-load step ns/op is the repo's headline number, gated
	// at 1.15x the recorded baseline.
	compareFail := func(name string, baseV, curV, threshold float64) {
		if baseV == 0 {
			return // the baseline predates the metric
		}
		delta := deltaPct(baseV, curV)
		mark := ""
		if delta > threshold {
			mark = "  <-- FAIL: exceeds +" + strconv.FormatFloat(threshold, 'f', -1, 64) + "% threshold"
			failed = true
		}
		fmt.Printf("  %-24s %12.1f -> %12.1f  (%+.1f%%)%s\n", name, baseV, curV, delta, mark)
	}
	compareFail("step ns/op", base.Kernel.StepNsPerOp, cur.Kernel.StepNsPerOp, 15)
	compare("step lowload ns/op", base.Kernel.StepLowLoadNsPerOp, cur.Kernel.StepLowLoadNsPerOp, 25)
	compare("step 16x16 ns/op", base.Kernel.Step16x16NsPerOp, cur.Kernel.Step16x16NsPerOp, 25)
	compare("step 16x16 sharded ns/op", base.Kernel.Step16x16ShardedNsPerOp, cur.Kernel.Step16x16ShardedNsPerOp, 25)
	// The 32x32 and 64x64 pairs only exist in full runs; a smoke run
	// (curV == 0) has nothing to compare against the baseline's record.
	if cur.Kernel.Step32x32NsPerOp > 0 {
		compare("step 32x32 ns/op", base.Kernel.Step32x32NsPerOp, cur.Kernel.Step32x32NsPerOp, 25)
		compare("step 32x32 sharded ns/op", base.Kernel.Step32x32ShardedNsPerOp, cur.Kernel.Step32x32ShardedNsPerOp, 25)
	}
	if cur.Kernel.Step64x64NsPerOp > 0 {
		compare("step 64x64 ns/op", base.Kernel.Step64x64NsPerOp, cur.Kernel.Step64x64NsPerOp, 25)
		compare("step 64x64 sharded ns/op", base.Kernel.Step64x64ShardedNsPerOp, cur.Kernel.Step64x64ShardedNsPerOp, 25)
	}
	compare("lowload cell wall ms", base.Cells.LowLoadCellWallSecs*1000, cur.Cells.LowLoadCellWallSecs*1000, 50)
	compareAlloc("step allocs/op", base.Kernel.StepAllocsPerOp, cur.Kernel.StepAllocsPerOp, 0)
	compareAlloc("steady allocs/op", base.Kernel.SteadyAllocsPerOp, cur.Kernel.SteadyAllocsPerOp, 0)
	compareAlloc("lowload cell alloc KB", float64(base.Cells.LowLoadCellTotalAllocBytes)/1024,
		float64(cur.Cells.LowLoadCellTotalAllocBytes)/1024, 10)
	// Absolute gate: the pooled kernel steady state allocates nothing.
	// This holds regardless of what the baseline recorded. The sharded
	// cell is included via SteadyAllocsPerOp: the parallel arena must
	// not allocate either.
	if cur.Kernel.SteadyAllocsPerOp > 0 {
		fmt.Printf("  steady allocs/op is %.1f (want 0)  <-- FAIL\n", cur.Kernel.SteadyAllocsPerOp)
		failed = true
	}
	// Sharded ratio gates. Two claims are enforced, on two different
	// measurements:
	//
	// Live, only when the host is wide enough (NumCPU >= shards): the
	// 16x16 sharded cell measured this run must show a >= 1.5x speedup
	// over serial — the two-phase barrier must pay for itself, and the
	// 1.5x margin is wide enough that shared-machine noise cannot fake
	// a failure. On narrower hosts the live ratio is printed for
	// information only: a live single-core overhead gate proved flaky
	// (a back-to-back auto-scaled pair swings ±10% on a busy host,
	// wider than the overhead being judged).
	//
	// Recorded, from the baseline snapshot: the checked-in pairs must
	// stay within a per-pair single-core overhead bound, judged with
	// the core count recorded alongside them — deterministic, since
	// both numbers are in the file. With inline dispatch the sharded
	// tick is the serial work in a different order plus a fixed
	// per-cycle tail (staged boundary commits, journal replay, band
	// dispatch); the bound is per pair because the tail is fixed while
	// the useful work scales with the band: at 32x32 it amortizes to
	// parity within host noise (1.05x), while at 16x16 the
	// slab-resident serial sweep is fast enough that the same tail is a
	// real ~7% of the cycle
	// (1.15x). A snapshot recorded beyond its bound fails every smoke
	// run until the structural tail is fixed and it is re-recorded.
	if cur.Kernel.Shards > 0 && cur.Kernel.Step16x16NsPerOp > 0 && cur.Kernel.Step16x16ShardedNsPerOp > 0 {
		speedup := cur.Kernel.Step16x16NsPerOp / cur.Kernel.Step16x16ShardedNsPerOp
		if runtime.NumCPU() >= cur.Kernel.Shards {
			if speedup < 1.5 {
				fmt.Printf("  sharded 16x16 live speedup %.2fx on %d CPUs (want >= 1.5x)  <-- FAIL\n", speedup, runtime.NumCPU())
				failed = true
			} else {
				fmt.Printf("  sharded 16x16 live speedup %.2fx on %d CPUs (gate: >= 1.5x)\n", speedup, runtime.NumCPU())
			}
		} else {
			fmt.Printf("  sharded 16x16 live ratio %.3fx on %d CPUs (informational; overhead judged on the recorded baseline)\n",
				cur.Kernel.Step16x16ShardedNsPerOp/cur.Kernel.Step16x16NsPerOp, runtime.NumCPU())
		}
	}
	judgeRecorded := func(label string, serial, sharded float64, shards, cores int, overheadMax float64) {
		if serial == 0 || sharded == 0 || shards == 0 {
			return
		}
		speedup := serial / sharded
		overhead := sharded / serial
		switch {
		case cores >= shards:
			if speedup < 1.5 {
				fmt.Printf("  sharded %s recorded speedup %.2fx on %d CPUs (want >= 1.5x)  <-- FAIL\n", label, speedup, cores)
				failed = true
			} else {
				fmt.Printf("  sharded %s recorded speedup %.2fx on %d CPUs (gate: >= 1.5x)\n", label, speedup, cores)
			}
		case cores == 1:
			if overhead > overheadMax {
				fmt.Printf("  sharded %s recorded overhead %.3fx on 1 CPU (want <= %.2fx)  <-- FAIL\n", label, overhead, overheadMax)
				failed = true
			} else {
				fmt.Printf("  sharded %s recorded overhead %.3fx on 1 CPU (gate: <= %.2fx)\n", label, overhead, overheadMax)
			}
		default:
			fmt.Printf("  sharded %s recorded speedup %.2fx on %d CPUs (speedup gate needs >= %d CPUs, overhead gate needs 1; recorded only)\n",
				label, speedup, cores, shards)
		}
	}
	judgeRecorded("16x16", base.Kernel.Step16x16NsPerOp, base.Kernel.Step16x16ShardedNsPerOp, base.Kernel.Shards, base.Cores, 1.15)
	judgeRecorded("32x32", base.Kernel.Step32x32NsPerOp, base.Kernel.Step32x32ShardedNsPerOp, base.Kernel.Shards, base.Cores, 1.05)
	if failed {
		return fmt.Errorf("bench-smoke regression (see above)")
	}
	if warned {
		fmt.Println("bench-smoke: wall-clock regression warnings above (warn-only; not failing the build)")
	} else {
		fmt.Println("bench-smoke: within thresholds")
	}
	return nil
}

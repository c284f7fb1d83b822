// Command sweep runs open-loop injection-rate sweeps and prints
// latency/throughput series per flow-control kind — the data behind the
// paper's "Other results" saturation comparison and the drop-vs-deflect
// extension.
//
// Usage:
//
//	sweep [-kinds backpressured,backpressureless,afc] [-pattern uniform]
//	      [-min 0.05] [-max 0.6] [-step 0.05] [-seeds 2]
//	      [-warmup 10000] [-measure 30000] [-parallel N]
//
// -scenario replaces the rate sweep with a JSON scenario spec
// (internal/scenario): scheduled mid-run rate/pattern/burst changes,
// link throttling and fault injection, reported as per-phase
// completion-time percentiles.
//
// Sweep cells (kind × rate × seed) run on a worker pool sized by
// -parallel (or AFCSIM_PARALLEL; default all CPUs). Results are
// bit-for-bit independent of the worker count. -check (or
// AFCSIM_CHECK=1) attaches the internal/check invariant checker to
// every cell's network.
//
// Observability (internal/obs, all off by default and invisible to
// results): -manifest writes a JSON run record (config, per-cell wall
// times, worker utilization), -progress (or AFCSIM_PROGRESS=1) prints a
// live stderr progress line, -cpuprofile/-memprofile write pprof
// profiles, and -debug-addr serves net/http/pprof plus the simulator's
// counters as expvars.
package main

import (
	"flag"
	"fmt"
	"log"
	"math"
	"os"
	"strings"

	"afcnet/internal/check"
	"afcnet/internal/config"
	"afcnet/internal/experiments"
	"afcnet/internal/network"
	"afcnet/internal/obs"
	"afcnet/internal/runner"
	"afcnet/internal/scenario"
	"afcnet/internal/topology"
	"afcnet/internal/traffic"
)

// patterns maps the -pattern flag to constructors.
var patterns = map[string]func(topology.Mesh) traffic.Pattern{
	"uniform":   func(m topology.Mesh) traffic.Pattern { return traffic.Uniform{Mesh: m} },
	"transpose": func(m topology.Mesh) traffic.Pattern { return traffic.Transpose{Mesh: m} },
	"bitcomp":   func(m topology.Mesh) traffic.Pattern { return traffic.BitComplement{Mesh: m} },
	"neighbor":  func(m topology.Mesh) traffic.Pattern { return traffic.NearNeighbor{Mesh: m} },
	"hotspot": func(m topology.Mesh) traffic.Pattern {
		return traffic.Hotspot{Mesh: m, Hot: m.Node(m.Width/2, m.Height/2), Frac: 0.3}
	},
}

var kindsByName = map[string]network.Kind{
	"backpressured":    network.Backpressured,
	"ideal-bypass":     network.BackpressuredIdealBypass,
	"backpressureless": network.Bless,
	"drop":             network.BlessDrop,
	"afc":              network.AFC,
	"afc-always-bp":    network.AFCAlwaysBuffered,
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("sweep: ")
	var (
		kindList  = flag.String("kinds", "backpressured,backpressureless,drop,afc", "comma-separated router kinds")
		pattern   = flag.String("pattern", "uniform", "traffic pattern: uniform|transpose|bitcomp|neighbor|hotspot")
		scenarioF = flag.String("scenario", "", "instead of a rate sweep, run the JSON scenario spec at this path and report per-phase completion-time percentiles")
		minRate   = flag.Float64("min", 0.05, "minimum offered load (flits/node/cycle)")
		maxRate   = flag.Float64("max", 0.60, "maximum offered load")
		step      = flag.Float64("step", 0.05, "offered-load step")
		seeds     = flag.Int("seeds", 2, "repeated runs per point")
		warmup    = flag.Uint64("warmup", 10_000, "warmup cycles")
		measure   = flag.Uint64("measure", 30_000, "measurement cycles")
		parallel  = flag.Int("parallel", runner.FromEnv(), "worker-pool size; <=0 means all CPUs, 1 is serial (results are identical either way)")
		checked   = flag.Bool("check", check.FromEnv(), "attach the runtime invariant checker to every run (or set AFCSIM_CHECK=1); identical results, slower")
		shards    = flag.Int("shards", network.ShardsFromEnv(), "shard each network's tick across this many row bands of worker goroutines (or set AFCSIM_SHARDS=N); <=1 is the serial kernel, identical results")
		manifest  = flag.String("manifest", "", "write a JSON run manifest (config, per-cell wall times, worker utilization) to this file")
		progress  = flag.Bool("progress", obs.ProgressFromEnv(), "print a live progress line to stderr (or set AFCSIM_PROGRESS=1)")
		cpuprof   = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprof   = flag.String("memprofile", "", "write a heap profile to this file")
		debugAddr = flag.String("debug-addr", "", "serve net/http/pprof and expvar simulator counters on this address (e.g. localhost:6060)")
	)
	flag.Parse()
	rates, err := sweepRates(*minRate, *maxRate, *step)
	if err != nil {
		log.Fatal(err)
	}
	seedList, err := sweepSeeds(*seeds)
	if err != nil {
		log.Fatal(err)
	}

	stopCPU, err := obs.StartCPUProfile(*cpuprof)
	if err != nil {
		log.Fatal(err)
	}
	var metrics *obs.Metrics
	if *debugAddr != "" {
		metrics = &obs.Metrics{}
		addr, err := obs.ServeDebug(*debugAddr, metrics)
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("debug endpoint at http://%s/debug/vars (pprof under /debug/pprof/)", addr)
	}

	var kinds []network.Kind
	for _, name := range strings.Split(*kindList, ",") {
		k, ok := kindsByName[strings.TrimSpace(name)]
		if !ok {
			log.Fatalf("unknown kind %q", name)
		}
		kinds = append(kinds, k)
	}
	opt := experiments.Default()
	opt.Seeds = seedList
	opt.OpenLoopWarmup = *warmup
	opt.OpenLoopMeasure = *measure
	opt.Parallelism = *parallel
	opt.Check = *checked
	opt.Shards = *shards

	kindNames := make([]string, len(kinds))
	for i, k := range kinds {
		kindNames[i] = k.String()
	}
	ob := obs.New(obs.Config{
		Command:  "sweep",
		Args:     os.Args[1:],
		Workers:  *parallel,
		Kinds:    kindNames,
		Seeds:    opt.Seeds,
		Manifest: *manifest != "",
		Progress: *progress,
		Metrics:  metrics,
	})
	opt.Obs = ob

	finish := func() {
		ob.Finish()
		if err := ob.WriteManifestFile(*manifest); err != nil {
			log.Fatal(err)
		}
		if err := obs.WriteHeapProfile(*memprof); err != nil {
			log.Fatal(err)
		}
		stopCPU()
	}

	if *scenarioF != "" {
		spec, err := scenario.ParseFile(*scenarioF)
		if err != nil {
			log.Fatal(err)
		}
		if err := spec.ValidateFor(config.Default().Mesh); err != nil {
			log.Fatal(err)
		}
		rs, err := experiments.Scenario(kinds, spec, opt)
		if err != nil {
			finish()
			log.Fatal(err)
		}
		ob.RecordScenario(spec, rs)
		finish()
		experiments.WriteScenario(os.Stdout, spec.Name, rs)
		return
	}

	mk, ok := patterns[*pattern]
	if !ok {
		log.Fatalf("unknown pattern %q", *pattern)
	}
	pts := experiments.LatencySweepPattern(kinds, rates, mk, opt)
	finish()
	experiments.WriteSweep(os.Stdout, pts)
	fmt.Println("note: 'saturated' means mean total latency (including source queueing) exceeded the bound; see internal/experiments.")
}

// sweepRates returns the offered loads min, min+step, ... up to max
// inclusive (with a small tolerance for float accumulation). It rejects
// a step that would never reach max and a range that is empty or
// unbounded, so a malformed sweep fails before any cell runs.
func sweepRates(min, max, step float64) ([]float64, error) {
	if !(step > 0) {
		return nil, fmt.Errorf("-step %g: want a step > 0", step)
	}
	if !(min >= 0 && min <= max) || math.IsInf(max, 0) {
		return nil, fmt.Errorf("-min %g -max %g: want finite 0 <= min <= max", min, max)
	}
	var rates []float64
	for r := min; r <= max+1e-9; r += step {
		rates = append(rates, r)
	}
	return rates, nil
}

// sweepSeeds returns the seeds 1..n of n repeated runs per point.
func sweepSeeds(n int) ([]int64, error) {
	if n < 1 {
		return nil, fmt.Errorf("-seeds %d: want at least 1 run per point", n)
	}
	seeds := make([]int64, n)
	for i := range seeds {
		seeds[i] = int64(i + 1)
	}
	return seeds, nil
}

// Command afcsim runs closed-loop workloads on network configurations and
// prints performance, energy, injection-rate and AFC mode statistics.
//
// Usage:
//
//	afcsim [-kind afc] [-bench apache] [-seed 1] [-warmup 2000] [-tx 6000]
//	afcsim -bench all -kind all          # full cross product
//
// The bench × kind matrix runs on a worker pool sized by -parallel (or
// AFCSIM_PARALLEL; default all CPUs); each run buffers its report and the
// rows print in matrix order, so output and results are identical to a
// serial run. Trace recording (-record) forces serial execution because
// every run writes the same trace file.
//
// -scenario runs a JSON scenario spec (internal/scenario) instead of a
// closed-loop workload: open-loop traffic whose rate, pattern, bursting,
// link throttling and fault state change at scheduled cycles, reported
// as per-phase completion-time percentiles.
//
// -check (or AFCSIM_CHECK=1) attaches the internal/check invariant
// checker to every network; results are identical, runs are slower, and
// any violation aborts with a diagnostic.
//
// Observability (internal/obs, all off by default and bit-for-bit
// invisible to results): -manifest writes a JSON run record (config,
// per-cell wall times, worker utilization), -progress (or
// AFCSIM_PROGRESS=1) prints a live stderr progress line,
// -cpuprofile/-memprofile write pprof profiles, and -debug-addr serves
// net/http/pprof plus the simulator's counters as expvars.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strconv"
	"strings"

	"afcnet/internal/check"
	"afcnet/internal/cmp"
	"afcnet/internal/config"
	"afcnet/internal/experiments"
	"afcnet/internal/network"
	"afcnet/internal/obs"
	"afcnet/internal/router"
	"afcnet/internal/runner"
	"afcnet/internal/scenario"
	"afcnet/internal/topology"
	"afcnet/internal/trace"
)

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
	log.SetPrefix("afcsim: ")
	var (
		kindFlag  = flag.String("kind", "afc", "router kind: backpressured|ideal-bypass|backpressureless|drop|afc|afc-always-bp|all")
		benchFlag = flag.String("bench", "apache", "workload: apache|oltp|specjbb|barnes|ocean|water|all")
		seed      = flag.Int64("seed", 1, "random seed")
		warmup    = flag.Uint64("warmup", 2000, "warmup transactions before measurement")
		tx        = flag.Uint64("tx", 6000, "measured transactions")
		limit     = flag.Uint64("limit", 20_000_000, "cycle limit")
		oldest    = flag.Bool("oldest", false, "use oldest-first deflection arbitration instead of randomized")
		prealloc  = flag.Bool("wb-prealloc", false, "use the writeback pre-allocation protocol variant (Section II)")
		realVCA   = flag.Bool("realistic-vca", false, "model the 3-stage backpressured pipeline (non-speculative VCA)")
		meshFlag  = flag.String("mesh", "3x3", "mesh dimensions WxH (the paper uses 3x3; Sec. V-B uses 8x8)")
		scenarioF = flag.String("scenario", "", "instead of a workload, run the JSON scenario spec at this path open-loop and report per-phase completion-time percentiles")
		recordTo  = flag.String("record", "", "record the created packet trace to this file")
		replayOf  = flag.String("replay", "", "instead of a workload, replay a trace file recorded with -record")
		parallel  = flag.Int("parallel", runner.FromEnv(), "worker-pool size; <=0 means all CPUs, 1 is serial (results are identical either way)")
		checked   = flag.Bool("check", check.FromEnv(), "attach the runtime invariant checker (or set AFCSIM_CHECK=1); identical results, slower")
		shards    = flag.Int("shards", network.ShardsFromEnv(), "shard each network's tick across this many row bands of worker goroutines (or set AFCSIM_SHARDS=N); <=1 is the serial kernel, identical results")
		manifest  = flag.String("manifest", "", "write a JSON run manifest (config, per-cell wall times, worker utilization) to this file")
		progress  = flag.Bool("progress", obs.ProgressFromEnv(), "print a live progress line to stderr (or set AFCSIM_PROGRESS=1)")
		cpuprof   = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprof   = flag.String("memprofile", "", "write a heap profile to this file")
		debugAddr = flag.String("debug-addr", "", "serve net/http/pprof and expvar simulator counters on this address (e.g. localhost:6060)")
	)
	flag.Parse()

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

	mesh, err := parseMesh(*meshFlag)
	if err != nil {
		log.Fatal(err)
	}

	var kinds []network.Kind
	if *kindFlag == "all" {
		kinds = []network.Kind{
			network.Backpressured, network.BackpressuredIdealBypass,
			network.Bless, network.AFCAlwaysBuffered, network.AFC,
		}
	} else {
		k, ok := kindsByName[*kindFlag]
		if !ok {
			log.Fatalf("unknown kind %q", *kindFlag)
		}
		kinds = []network.Kind{k}
	}

	var benches []cmp.Params
	if *benchFlag == "all" {
		benches = cmp.AllBenchmarks()
	} else {
		p, ok := cmp.ByName(*benchFlag)
		if !ok {
			log.Fatalf("unknown benchmark %q", *benchFlag)
		}
		benches = []cmp.Params{p}
	}

	kindNames := make([]string, len(kinds))
	for i, k := range kinds {
		kindNames[i] = k.String()
	}
	ob := obs.New(obs.Config{
		Command:  "afcsim",
		Args:     os.Args[1:],
		Workers:  *parallel,
		Kinds:    kindNames,
		Seeds:    []int64{*seed},
		Manifest: *manifest != "",
		Progress: *progress,
		Metrics:  metrics,
	})
	// finish flushes every enabled observer; it must run on the error
	// paths too, so the manifest of a failed sweep is still written.
	finish := func() {
		ob.Finish()
		if err := ob.WriteManifestFile(*manifest); err != nil {
			log.Print(err)
		}
		if err := obs.WriteHeapProfile(*memprof); err != nil {
			log.Print(err)
		}
		stopCPU()
	}

	if *scenarioF != "" {
		if err := runScenario(*scenarioF, kinds, mesh, *seed, *parallel, *checked, *shards, ob); err != nil {
			finish()
			log.Fatal(err)
		}
		finish()
		return
	}

	if *replayOf != "" {
		err := replay(*replayOf, kinds, mesh, *seed, *checked, *shards, ob)
		finish()
		if err != nil {
			log.Fatal(err)
		}
		return
	}

	fmt.Printf("%-8s %-26s %8s %9s %9s %8s %10s %7s %7s %8s %6s\n",
		"bench", "kind", "inj", "cycles", "tx/cycle", "netlat",
		"energy", "buf%", "link%", "bufmode", "defl")
	pol := router.PolicyRandom
	if *oldest {
		pol = router.PolicyOldest
	}
	pool := runner.Options{Parallelism: *parallel}
	if *recordTo != "" {
		// Every run writes the same trace file; keep them ordered.
		pool.Parallelism = 1
	}
	ob.Hook(&pool)
	nk := len(kinds)
	reports, err := runner.Map(len(benches)*nk, pool, func(i int) (*bytes.Buffer, error) {
		p := benches[i/nk]
		k := kinds[i%nk]
		if *prealloc {
			p.WritebackPreAlloc = true
		}
		var buf bytes.Buffer
		if err := runOne(&buf, p, k, mesh, pol, *realVCA, *seed, *warmup, *tx, *limit, *recordTo, *checked, *shards, ob); err != nil {
			return nil, err
		}
		return &buf, nil
	})
	finish()
	if err != nil {
		log.Print(err)
		os.Exit(1)
	}
	for _, r := range reports {
		os.Stdout.Write(r.Bytes())
	}
}

// runScenario runs a scenario spec across the selected kinds and prints
// the per-phase completion-time report. The spec's timeline replaces the
// closed-loop workload entirely.
func runScenario(path string, kinds []network.Kind, mesh topology.Mesh, seed int64, parallel int, checked bool, shards int, ob *obs.Observer) error {
	spec, err := scenario.ParseFile(path)
	if err != nil {
		return err
	}
	if err := spec.ValidateFor(mesh); err != nil {
		return err
	}
	opt := experiments.Options{
		Seeds:       []int64{seed},
		Parallelism: parallel,
		Check:       checked,
		Shards:      shards,
		System:      config.DefaultWithMesh(mesh),
		Obs:         ob,
	}
	rs, err := experiments.Scenario(kinds, spec, opt)
	if err != nil {
		return err
	}
	ob.RecordScenario(spec, rs)
	experiments.WriteScenario(os.Stdout, spec.Name, rs)
	return nil
}

// parseMesh parses "WxH" into a mesh. The whole string must be the two
// numbers and the x: trailing text is an error, not ignored.
func parseMesh(s string) (topology.Mesh, error) {
	ws, hs, ok := strings.Cut(s, "x")
	w, werr := strconv.Atoi(ws)
	h, herr := strconv.Atoi(hs)
	if !ok || werr != nil || herr != nil || w < 2 || h < 2 {
		return topology.Mesh{}, fmt.Errorf("bad mesh %q (want WxH, each >= 2)", s)
	}
	return topology.NewMesh(w, h), nil
}

// runOne executes one bench/kind cell and writes its report rows to w
// (a per-cell buffer under parallel execution, so rows never interleave).
func runOne(w io.Writer, p cmp.Params, k network.Kind, mesh topology.Mesh, pol router.DeflectPolicy, realVCA bool, seed int64, warmup, tx, limit uint64, recordTo string, checked bool, shards int, ob *obs.Observer) error {
	sys := config.DefaultWithMesh(mesh)
	sys.Baseline.RealisticVCA = realVCA
	net := network.New(network.Config{System: sys, Kind: k, Seed: seed, MeterEnergy: true, Policy: pol, Shards: shards})
	defer net.Close()
	if checked {
		check.Attach(net)
	}
	ob.Sample(net)
	var tr *trace.Trace
	if recordTo != "" {
		tr = trace.Record(net)
	}
	workload := cmp.NewSystem(net, p, net.RandStream)
	res, ok := workload.Measure(warmup, tx, limit)
	if !ok {
		return fmt.Errorf("%s on %s: cycle limit %d exceeded (completed %d transactions)",
			p.Name, k, limit, workload.CompletedTransactions())
	}
	e := net.TotalEnergy()
	ms := net.ModeStats()
	fmt.Fprintf(w, "%-8s %-26s %8.3f %9d %9.4f %8.1f %10.0f %6.1f%% %6.1f%% %8.2f %6d\n",
		p.Name, k, res.InjectionRate, res.Cycles, res.TransactionsPerCycle,
		res.MeanNetLatency, e.Total(), 100*e.Buffer()/e.Total(),
		100*e.Link/e.Total(), ms.BufferedFraction(), net.TotalDeflections())
	if ms.EscapeEvents > 0 {
		fmt.Fprintf(w, "  note: %d escape-latch events, %d gossip switches\n",
			ms.EscapeEvents, ms.GossipSwitches)
	}
	if tr != nil {
		f, err := os.Create(recordTo)
		if err != nil {
			return err
		}
		defer f.Close()
		tr.Sort()
		if err := tr.Write(f); err != nil {
			return err
		}
		fmt.Fprintf(w, "  recorded %d packets (%d flits) to %s\n",
			len(tr.Events), tr.Flits(), recordTo)
	}
	return nil
}

// replay reads a recorded trace, checks it against mesh before any
// network is built, and replays it into each kind in turn.
func replay(path string, kinds []network.Kind, mesh topology.Mesh, seed int64, checked bool, shards int, ob *obs.Observer) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	tr, err := trace.Read(f)
	f.Close()
	if err != nil {
		return err
	}
	if err := tr.ValidateFor(mesh); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	for _, k := range kinds {
		replayOne(tr, k, mesh, seed, checked, shards, ob)
	}
	return nil
}

// replayOne feeds tr open-loop into a fresh network of the given kind and
// mesh and reports the trace-driven (no-feedback) metrics.
func replayOne(tr *trace.Trace, k network.Kind, mesh topology.Mesh, seed int64, checked bool, shards int, ob *obs.Observer) {
	net := network.New(network.Config{System: config.DefaultWithMesh(mesh), Kind: k, Seed: seed, MeterEnergy: true, Shards: shards})
	defer net.Close()
	if checked {
		check.Attach(net)
	}
	ob.Sample(net)
	rp := trace.NewReplayer(net, tr)
	net.AddTicker(rp)
	limit := tr.Duration() + 500_000
	done := net.RunUntil(func() bool { return rp.Done() && net.Drained() }, limit)
	backlog := net.CreatedPackets() - net.DeliveredPackets()
	fmt.Printf("replay    %-26s packets=%d delivered=%d backlog=%d netlat=%.1f drained=%v\n",
		k, net.CreatedPackets(), net.DeliveredPackets(), backlog, net.MeanNetLatency(), done)
}

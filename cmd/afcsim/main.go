// Command afcsim runs closed-loop workloads on network configurations and
// prints performance, energy, injection-rate and AFC mode statistics.
//
// Usage:
//
//	afcsim [-kind afc] [-bench apache] [-seed 1] [-warmup 2000] [-tx 6000]
//	afcsim -bench all -kind all          # full cross product
//
// The bench × kind matrix runs on a worker pool sized by -parallel; each
// run buffers its report and the rows print in matrix order, so output
// and results are identical to a serial run. Trace recording (-record)
// forces serial execution because every run writes the same trace file.
//
// -scenario runs a JSON scenario spec (internal/scenario) instead of a
// closed-loop workload: open-loop traffic whose rate, pattern, bursting,
// link throttling and fault state change at scheduled cycles, reported
// as per-phase completion-time percentiles.
//
// The flags afcsim shares with figures and sweep (-parallel, -check,
// -shards, -scenario and the observability flags) and the order in
// which a run checks its input and starts its profiles and manifest are
// described in internal/cli.
package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strconv"
	"strings"

	"afcnet/internal/check"
	"afcnet/internal/cli"
	"afcnet/internal/cmp"
	"afcnet/internal/config"
	"afcnet/internal/experiments"
	"afcnet/internal/network"
	"afcnet/internal/router"
	"afcnet/internal/runner"
	"afcnet/internal/topology"
	"afcnet/internal/trace"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("afcsim: ")
	if err := run(flag.CommandLine, os.Args[1:], os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run parses args with fs, checks every input, then runs the selected
// mode and writes its report to stdout.
func run(fs *flag.FlagSet, args []string, stdout io.Writer) error {
	var (
		kindFlag  = fs.String("kind", "afc", "router kind: backpressured|ideal-bypass|backpressureless|drop|afc|afc-always-bp|all")
		benchFlag = fs.String("bench", "apache", "workload: apache|oltp|specjbb|barnes|ocean|water|all")
		seed      = fs.Int64("seed", 1, "random seed")
		warmup    = fs.Uint64("warmup", 2000, "warmup transactions before measurement")
		tx        = fs.Uint64("tx", 6000, "measured transactions")
		limit     = fs.Uint64("limit", 20_000_000, "cycle limit")
		oldest    = fs.Bool("oldest", false, "use oldest-first deflection arbitration instead of randomized")
		prealloc  = fs.Bool("wb-prealloc", false, "use the writeback pre-allocation protocol variant (Section II)")
		realVCA   = fs.Bool("realistic-vca", false, "model the 3-stage backpressured pipeline (non-speculative VCA)")
		meshFlag  = fs.String("mesh", "3x3", "mesh dimensions WxH (the paper uses 3x3; Sec. V-B uses 8x8)")
		recordTo  = fs.String("record", "", "record the created packet trace to this file")
		replayOf  = fs.String("replay", "", "instead of a workload, replay a trace file recorded with -record")
	)
	shared := cli.Register(fs, "instead of a workload, run the JSON scenario spec at this path open-loop and report per-phase completion-time percentiles")
	fs.Lookup("check").Usage = "attach the runtime invariant checker; identical results, slower"
	if err := fs.Parse(args); err != nil {
		return err
	}

	mesh, err := parseMesh(*meshFlag)
	if err != nil {
		return err
	}
	kinds := []network.Kind{
		network.Backpressured, network.BackpressuredIdealBypass,
		network.Bless, network.AFCAlwaysBuffered, network.AFC,
	}
	if *kindFlag != "all" {
		k, err := cli.Kind(*kindFlag)
		if err != nil {
			return err
		}
		kinds = []network.Kind{k}
	}
	benches := cmp.AllBenchmarks()
	if *benchFlag != "all" {
		p, ok := cmp.ByName(*benchFlag)
		if !ok {
			return fmt.Errorf("unknown benchmark %q", *benchFlag)
		}
		benches = []cmp.Params{p}
	}
	spec, err := shared.LoadScenario(mesh)
	if err != nil {
		return err
	}
	var tr *trace.Trace
	if *replayOf != "" {
		if tr, err = readTrace(*replayOf, mesh); err != nil {
			return err
		}
	}

	ob, finish, err := shared.Start("afcsim", args, kinds, []int64{*seed})
	if err != nil {
		return err
	}
	// newNet builds a cell's network with the shared -shards and -check
	// settings and the observer's counter sampler.
	newNet := func(cfg network.Config) *network.Network {
		cfg.Shards = shared.Shards
		net := network.New(cfg)
		if shared.Check {
			check.Attach(net)
		}
		ob.Sample(net)
		return net
	}
	// The report is buffered so it prints after finish has closed the
	// progress line.
	var out bytes.Buffer
	switch {
	case spec != nil:
		opt := shared.Options(experiments.Options{Seeds: []int64{*seed}, System: config.DefaultWithMesh(mesh)}, ob)
		err = cli.RunScenario(&out, spec, kinds, opt)
	case tr != nil:
		for _, k := range kinds {
			replayOne(&out, tr, k, mesh, *seed, newNet)
		}
	default:
		pol := router.PolicyRandom
		if *oldest {
			pol = router.PolicyOldest
		}
		pool := runner.Options{Parallelism: shared.Parallel}
		if *recordTo != "" {
			// Every run writes the same trace file; keep them ordered.
			pool.Parallelism = 1
		}
		ob.Hook(&pool)
		fmt.Fprintf(&out, "%-8s %-26s %8s %9s %9s %8s %10s %7s %7s %8s %6s\n",
			"bench", "kind", "inj", "cycles", "tx/cycle", "netlat",
			"energy", "buf%", "link%", "bufmode", "defl")
		nk := len(kinds)
		reports := make([]bytes.Buffer, len(benches)*nk)
		err = runner.Run(len(reports), pool, func(i int) error {
			p := benches[i/nk]
			if *prealloc {
				p.WritebackPreAlloc = true
			}
			return runOne(&reports[i], p, kinds[i%nk], mesh, pol, *realVCA, *seed, *warmup, *tx, *limit, *recordTo, newNet)
		})
		if err == nil {
			for i := range reports {
				out.Write(reports[i].Bytes())
			}
		}
	}
	err = errors.Join(err, finish())
	_, werr := out.WriteTo(stdout)
	return errors.Join(err, werr)
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
func runOne(w io.Writer, p cmp.Params, k network.Kind, mesh topology.Mesh, pol router.DeflectPolicy, realVCA bool, seed int64, warmup, tx, limit uint64, recordTo string, newNet func(network.Config) *network.Network) error {
	sys := config.DefaultWithMesh(mesh)
	sys.Baseline.RealisticVCA = realVCA
	net := newNet(network.Config{System: sys, Kind: k, Seed: seed, MeterEnergy: true, Policy: pol})
	defer net.Close()
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

// readTrace reads a recorded trace and checks it against mesh, so a
// trace that does not fit fails before any network is built.
func readTrace(path string, mesh topology.Mesh) (*trace.Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	tr, err := trace.Read(f)
	f.Close()
	if err != nil {
		return nil, err
	}
	if err := tr.ValidateFor(mesh); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return tr, nil
}

// replayOne feeds tr open-loop into a fresh network of the given kind and
// mesh and writes the trace-driven (no-feedback) metrics to w.
func replayOne(w io.Writer, tr *trace.Trace, k network.Kind, mesh topology.Mesh, seed int64, newNet func(network.Config) *network.Network) {
	net := newNet(network.Config{System: config.DefaultWithMesh(mesh), Kind: k, Seed: seed, MeterEnergy: true})
	defer net.Close()
	rp := trace.NewReplayer(net, tr)
	net.AddTicker(rp)
	limit := tr.Duration() + 500_000
	done := net.RunUntil(func() bool { return rp.Done() && net.Drained() }, limit)
	backlog := net.CreatedPackets() - net.DeliveredPackets()
	fmt.Fprintf(w, "replay    %-26s packets=%d delivered=%d backlog=%d netlat=%.1f drained=%v\n",
		k, net.CreatedPackets(), net.DeliveredPackets(), backlog, net.MeanNetLatency(), done)
}

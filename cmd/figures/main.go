// Command figures regenerates every table and figure of the paper's
// evaluation (see DESIGN.md's per-experiment index and EXPERIMENTS.md for
// recorded paper-vs-measured results).
//
// Usage:
//
//	figures                      # everything (several minutes)
//	figures -fig 2a              # one artifact
//	figures -quick               # reduced runs for smoke checks
//	figures -parallel 1          # historical serial execution
//
// Simulation cells (benchmark × kind × seed) run on a worker pool;
// results are bit-for-bit independent of the worker count. -parallel
// (or the AFCSIM_PARALLEL environment variable) sets the pool size,
// defaulting to all CPUs. -check (or AFCSIM_CHECK=1) attaches the
// internal/check invariant checker to every cell's network.
//
// Observability (internal/obs, all off by default and invisible to
// results): -manifest writes a JSON run record with one entry per
// executed cell, -progress (or AFCSIM_PROGRESS=1) prints a live stderr
// progress line with an ETA, -cpuprofile/-memprofile write pprof
// profiles, and -debug-addr serves net/http/pprof plus the simulator's
// counters as expvars — useful to watch a multi-minute full run.
//
// Artifacts: 2a 2b 2c 2d 3a 3b duty rates sweep quadrant gossip
// lazyvca thresholds sizing pipeline metric ejectwidth
//
// -scenario <spec.json> additionally runs a scenario (internal/scenario)
// across the comparison kinds and prints per-phase completion-time
// percentiles; alone it runs just the scenario, with -fig it rides along.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	invcheck "afcnet/internal/check"
	"afcnet/internal/cmp"
	"afcnet/internal/config"
	"afcnet/internal/experiments"
	"afcnet/internal/network"
	"afcnet/internal/obs"
	"afcnet/internal/runner"
	"afcnet/internal/scenario"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("figures: ")
	var (
		fig       = flag.String("fig", "all", "artifact to regenerate (see command doc)")
		scenarioF = flag.String("scenario", "", "also run the JSON scenario spec at this path and print its per-phase completion-time percentiles")
		quick     = flag.Bool("quick", false, "reduced run lengths")
		svgDir    = flag.String("svg", "", "also render the main figures as SVG into this directory")
		jsonOut   = flag.String("json", "", "run the complete evaluation and write it as JSON to this file")
		parallel  = flag.Int("parallel", runner.FromEnv(), "worker-pool size; <=0 means all CPUs, 1 is serial (results are identical either way)")
		checked   = flag.Bool("check", invcheck.FromEnv(), "attach the runtime invariant checker to every run (or set AFCSIM_CHECK=1); identical results, slower")
		shards    = flag.Int("shards", network.ShardsFromEnv(), "shard each network's tick across this many row bands of worker goroutines (or set AFCSIM_SHARDS=N); <=1 is the serial kernel, identical results")
		manifest  = flag.String("manifest", "", "write a JSON run manifest (config, per-cell wall times, worker utilization) to this file")
		progress  = flag.Bool("progress", obs.ProgressFromEnv(), "print a live progress line to stderr (or set AFCSIM_PROGRESS=1)")
		cpuprof   = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprof   = flag.String("memprofile", "", "write a heap profile to this file")
		debugAddr = flag.String("debug-addr", "", "serve net/http/pprof and expvar simulator counters on this address (e.g. localhost:6060)")
	)
	flag.Parse()
	// -scenario alone runs just the scenario; combine with an explicit
	// -fig to regenerate artifacts in the same invocation.
	figSet := false
	flag.Visit(func(f *flag.Flag) { figSet = figSet || f.Name == "fig" })
	if *scenarioF != "" && !figSet {
		*fig = "none"
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

	opt := experiments.Default()
	if *quick {
		opt = experiments.Quick()
	}
	opt.Parallelism = *parallel
	opt.Check = *checked
	opt.Shards = *shards
	ob := obs.New(obs.Config{
		Command:  "figures",
		Args:     os.Args[1:],
		Workers:  *parallel,
		Seeds:    opt.Seeds,
		Manifest: *manifest != "",
		Progress: *progress,
		Metrics:  metrics,
	})
	opt.Obs = ob
	// check() runs this before log.Fatal (which skips defers), so a
	// failed run still leaves its manifest and profiles behind.
	finishObs = func() {
		ob.Finish()
		if err := ob.WriteManifestFile(*manifest); err != nil {
			log.Print(err)
		}
		if err := obs.WriteHeapProfile(*memprof); err != nil {
			log.Print(err)
		}
		stopCPU()
	}
	defer finishObs()

	want := func(name string) bool {
		return *fig == "all" || strings.EqualFold(*fig, name)
	}
	ran := false
	out := os.Stdout

	if want("2a") || want("2b") {
		ms, err := experiments.ClosedLoop(cmp.LowLoad(), experiments.Fig2EnergyKinds, opt)
		check(err)
		ms = append(ms, experiments.GeoMeans(ms)...)
		if want("2a") {
			experiments.WriteFig2(out, "Figure 2(a/b): low-load benchmarks (normalized to backpressured)", ms)
		} else {
			experiments.WriteFig2(out, "Figure 2(b): low-load energy (normalized to backpressured)", ms)
		}
		ran = true
	}
	if want("2c") || want("2d") {
		ms, err := experiments.ClosedLoop(cmp.HighLoad(), experiments.Fig2Kinds, opt)
		check(err)
		ms = append(ms, experiments.GeoMeans(ms)...)
		experiments.WriteFig2(out, "Figure 2(c/d): high-load benchmarks (normalized to backpressured)", ms)
		ran = true
	}
	if want("3a") {
		ms, err := experiments.ClosedLoop(cmp.LowLoad(), experiments.Fig2Kinds, opt)
		check(err)
		experiments.WriteFig3(out, "Figure 3(a): energy breakdown, low-load benchmarks", ms)
		ran = true
	}
	if want("3b") {
		ms, err := experiments.ClosedLoop(cmp.HighLoad(), experiments.Fig2Kinds, opt)
		check(err)
		experiments.WriteFig3(out, "Figure 3(b): energy breakdown, high-load benchmarks", ms)
		ran = true
	}
	if want("duty") {
		ms, err := experiments.ClosedLoop(cmp.AllBenchmarks(), []network.Kind{network.Backpressured, network.AFC}, opt)
		check(err)
		experiments.WriteDuty(out, ms)
		ran = true
	}
	if want("rates") {
		rows, err := experiments.Table3(opt)
		check(err)
		experiments.WriteTable3(out, rows)
		ran = true
	}
	if want("sweep") {
		rates := []float64{0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4, 0.45, 0.5, 0.55, 0.6}
		pts := experiments.LatencySweep(
			[]network.Kind{network.Backpressured, network.Bless, network.BlessDrop, network.AFC},
			rates, opt)
		experiments.WriteSweep(out, pts)
		ran = true
	}
	if want("quadrant") {
		rs := experiments.Quadrant(
			[]network.Kind{network.Backpressured, network.Bless, network.AFC},
			0.9, 0.1, opt)
		experiments.WriteQuadrant(out, rs)
		ran = true
	}
	if want("gossip") {
		r := experiments.GossipHotspot(opt.Seeds[0], opt)
		experiments.WriteGossip(out, r)
		ran = true
	}
	if want("lazyvca") {
		rows, err := experiments.AblationLazyVCA(opt)
		check(err)
		experiments.WriteLazyVCA(out, rows)
		ran = true
	}
	if want("thresholds") {
		rows, err := experiments.AblationThresholds([]float64{0.5, 1.0, 2.0, 4.0}, opt)
		check(err)
		experiments.WriteThresholds(out, rows)
		ran = true
	}
	if want("sizing") {
		rows, err := experiments.AblationBaselineSizing(opt)
		check(err)
		experiments.WriteBaselineSizing(out, rows)
		ran = true
	}
	if want("pipeline") {
		rows, err := experiments.AblationPipeline(opt)
		check(err)
		experiments.WritePipeline(out, rows)
		ran = true
	}
	if want("metric") {
		rows := experiments.AblationContentionMetric(opt)
		experiments.WriteContentionMetric(out, rows)
		ran = true
	}
	if want("ejectwidth") {
		rows, err := experiments.AblationEjectWidth([]int{1, 2, 3}, opt)
		check(err)
		experiments.WriteEjectWidth(out, rows)
		ran = true
	}
	if *scenarioF != "" {
		spec, err := scenario.ParseFile(*scenarioF)
		check(err)
		check(spec.ValidateFor(config.Default().Mesh))
		kinds := []network.Kind{
			network.Backpressured, network.Bless, network.BlessDrop,
			network.AFCAlwaysBuffered, network.AFC,
		}
		rs, err := experiments.Scenario(kinds, spec, opt)
		check(err)
		ob.RecordScenario(spec, rs)
		experiments.WriteScenario(out, spec.Name, rs)
		ran = true
	}
	if *jsonOut != "" {
		res, err := experiments.CollectAll(opt)
		check(err)
		f, err := os.Create(*jsonOut)
		check(err)
		defer f.Close()
		check(res.WriteJSON(f))
		fmt.Printf("wrote JSON results to %s\n", *jsonOut)
		ran = true
	}
	if *svgDir != "" {
		if err := experiments.WriteSVGs(*svgDir, opt); err != nil {
			check(err)
		}
		fmt.Printf("wrote SVG figures to %s\n", *svgDir)
		ran = true
	}
	if !ran {
		check(fmt.Errorf("unknown artifact %q", *fig))
	}
}

// finishObs flushes the observability layer; set in main, called on the
// fatal-error path because log.Fatal does not run defers.
var finishObs = func() {}

func check(err error) {
	if err != nil {
		finishObs()
		log.Fatal(err)
	}
}

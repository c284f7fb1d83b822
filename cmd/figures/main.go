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
// Simulation cells (benchmark × kind × seed) run on a worker pool sized
// by -parallel; results are bit-for-bit independent of the worker count.
// The flags figures shares with afcsim and sweep (-parallel, -check,
// -shards, -scenario and the observability flags) and the order in
// which a run checks its input and starts its profiles and manifest are
// described in internal/cli. A -manifest or -progress is useful to watch
// a multi-minute full run.
//
// Artifacts: 2a 2b 2c 2d 3a 3b duty rates sweep quadrant gossip
// lazyvca thresholds sizing pipeline metric ejectwidth
//
// -scenario <spec.json> additionally runs a scenario (internal/scenario)
// across the comparison kinds and prints per-phase completion-time
// percentiles; alone it runs just the scenario, with -fig it rides along.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"slices"
	"strings"

	"afcnet/internal/cli"
	"afcnet/internal/cmp"
	"afcnet/internal/config"
	"afcnet/internal/experiments"
	"afcnet/internal/network"
)

// artifacts are the -fig names besides "all".
var artifacts = []string{"2a", "2b", "2c", "2d", "3a", "3b", "duty", "rates", "sweep",
	"quadrant", "gossip", "lazyvca", "thresholds", "sizing", "pipeline", "metric", "ejectwidth"}

func main() {
	log.SetFlags(0)
	log.SetPrefix("figures: ")
	if err := run(flag.CommandLine, os.Args[1:], os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run parses args with fs, checks every input, then regenerates the
// selected artifacts, writing each to out as it completes.
func run(fs *flag.FlagSet, args []string, out io.Writer) (err error) {
	var (
		fig     = fs.String("fig", "all", "artifact to regenerate (see command doc)")
		quick   = fs.Bool("quick", false, "reduced run lengths")
		svgDir  = fs.String("svg", "", "also render the main figures as SVG into this directory")
		jsonOut = fs.String("json", "", "run the complete evaluation and write it as JSON to this file")
	)
	shared := cli.Register(fs, "also run the JSON scenario spec at this path and print its per-phase completion-time percentiles")
	if err := fs.Parse(args); err != nil {
		return err
	}
	// -scenario alone runs just the scenario; combine with an explicit
	// -fig to regenerate artifacts in the same invocation.
	figSet := false
	fs.Visit(func(f *flag.Flag) { figSet = figSet || f.Name == "fig" })
	if shared.Scenario != "" && !figSet {
		*fig = "none"
	}
	want := func(name string) bool {
		return *fig == "all" || strings.EqualFold(*fig, name)
	}
	if !slices.ContainsFunc(artifacts, want) && shared.Scenario == "" && *jsonOut == "" && *svgDir == "" {
		return fmt.Errorf("unknown artifact %q", *fig)
	}
	spec, err := shared.LoadScenario(config.Default().Mesh)
	if err != nil {
		return err
	}

	opt := experiments.Default()
	if *quick {
		opt = experiments.Quick()
	}
	ob, finish, err := shared.Start("figures", args, nil, opt.Seeds)
	if err != nil {
		return err
	}
	defer func() { err = errors.Join(err, finish()) }()
	opt = shared.Options(opt, ob)

	if want("2a") || want("2b") {
		ms, err := experiments.ClosedLoop(cmp.LowLoad(), experiments.Fig2EnergyKinds, opt)
		if err != nil {
			return err
		}
		ms = append(ms, experiments.GeoMeans(ms)...)
		if want("2a") {
			experiments.WriteFig2(out, "Figure 2(a/b): low-load benchmarks (normalized to backpressured)", ms)
		} else {
			experiments.WriteFig2(out, "Figure 2(b): low-load energy (normalized to backpressured)", ms)
		}
	}
	if want("2c") || want("2d") {
		ms, err := experiments.ClosedLoop(cmp.HighLoad(), experiments.Fig2Kinds, opt)
		if err != nil {
			return err
		}
		ms = append(ms, experiments.GeoMeans(ms)...)
		experiments.WriteFig2(out, "Figure 2(c/d): high-load benchmarks (normalized to backpressured)", ms)
	}
	if want("3a") {
		ms, err := experiments.ClosedLoop(cmp.LowLoad(), experiments.Fig2Kinds, opt)
		if err != nil {
			return err
		}
		experiments.WriteFig3(out, "Figure 3(a): energy breakdown, low-load benchmarks", ms)
	}
	if want("3b") {
		ms, err := experiments.ClosedLoop(cmp.HighLoad(), experiments.Fig2Kinds, opt)
		if err != nil {
			return err
		}
		experiments.WriteFig3(out, "Figure 3(b): energy breakdown, high-load benchmarks", ms)
	}
	if want("duty") {
		ms, err := experiments.ClosedLoop(cmp.AllBenchmarks(), []network.Kind{network.Backpressured, network.AFC}, opt)
		if err != nil {
			return err
		}
		experiments.WriteDuty(out, ms)
	}
	if want("rates") {
		rows, err := experiments.Table3(opt)
		if err != nil {
			return err
		}
		experiments.WriteTable3(out, rows)
	}
	if want("sweep") {
		rates := []float64{0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4, 0.45, 0.5, 0.55, 0.6}
		pts := experiments.LatencySweep(
			[]network.Kind{network.Backpressured, network.Bless, network.BlessDrop, network.AFC},
			rates, opt)
		experiments.WriteSweep(out, pts)
	}
	if want("quadrant") {
		rs := experiments.Quadrant(
			[]network.Kind{network.Backpressured, network.Bless, network.AFC},
			0.9, 0.1, opt)
		experiments.WriteQuadrant(out, rs)
	}
	if want("gossip") {
		r := experiments.GossipHotspot(opt.Seeds[0], opt)
		experiments.WriteGossip(out, r)
	}
	if want("lazyvca") {
		rows, err := experiments.AblationLazyVCA(opt)
		if err != nil {
			return err
		}
		experiments.WriteLazyVCA(out, rows)
	}
	if want("thresholds") {
		rows, err := experiments.AblationThresholds([]float64{0.5, 1.0, 2.0, 4.0}, opt)
		if err != nil {
			return err
		}
		experiments.WriteThresholds(out, rows)
	}
	if want("sizing") {
		rows, err := experiments.AblationBaselineSizing(opt)
		if err != nil {
			return err
		}
		experiments.WriteBaselineSizing(out, rows)
	}
	if want("pipeline") {
		rows, err := experiments.AblationPipeline(opt)
		if err != nil {
			return err
		}
		experiments.WritePipeline(out, rows)
	}
	if want("metric") {
		rows := experiments.AblationContentionMetric(opt)
		experiments.WriteContentionMetric(out, rows)
	}
	if want("ejectwidth") {
		rows, err := experiments.AblationEjectWidth([]int{1, 2, 3}, opt)
		if err != nil {
			return err
		}
		experiments.WriteEjectWidth(out, rows)
	}
	if spec != nil {
		kinds := []network.Kind{
			network.Backpressured, network.Bless, network.BlessDrop,
			network.AFCAlwaysBuffered, network.AFC,
		}
		if err := cli.RunScenario(out, spec, kinds, opt); err != nil {
			return err
		}
	}
	if *jsonOut != "" {
		if err := writeJSON(*jsonOut, opt); err != nil {
			return err
		}
		fmt.Fprintf(out, "wrote JSON results to %s\n", *jsonOut)
	}
	if *svgDir != "" {
		if err := experiments.WriteSVGs(*svgDir, opt); err != nil {
			return err
		}
		fmt.Fprintf(out, "wrote SVG figures to %s\n", *svgDir)
	}
	return nil
}

// writeJSON runs the complete evaluation and writes it to path.
func writeJSON(path string, opt experiments.Options) error {
	res, err := experiments.CollectAll(opt)
	if err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := res.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

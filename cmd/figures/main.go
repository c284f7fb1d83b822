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
// The artifacts are the entries of internal/experiments' registry, and
// -h lists their names. One run simulates each closed-loop cell once,
// as one batch, and prints each artifact as soon as it is computed.
// -json and -svg render from the same results: each adds to the run
// the artifacts it renders, without printing them.
//
// Simulation cells (benchmark × kind × seed) run on a worker pool sized
// by -parallel; results are bit-for-bit independent of the worker count.
// The flags figures shares with afcsim and sweep (-parallel, -check,
// -shards, -scenario and the observability flags) and the order in
// which a run checks its input and starts its profiles and manifest are
// described in internal/cli. A -manifest or -progress is useful to watch
// a multi-minute full run.
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
	"strings"

	"afcnet/internal/cli"
	"afcnet/internal/config"
	"afcnet/internal/experiments"
	"afcnet/internal/network"
)

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
		fig     = fs.String("fig", "all", "artifact to regenerate: all, or one of "+strings.Join(experiments.Artifacts(), " "))
		quick   = fs.Bool("quick", false, "reduced run lengths")
		svgDir  = fs.String("svg", "", "also render the main figures as SVG into this directory")
		jsonOut = fs.String("json", "", "also write Fig. 2, Table III, the sweep, the consolidation and the gossip run as JSON to this file")
	)
	shared := cli.Register(fs, "also run the JSON scenario spec at this path and print its per-phase completion-time percentiles")
	if err := fs.Parse(args); err != nil {
		return err
	}
	// -scenario alone runs just the scenario; combine with an explicit
	// -fig to regenerate artifacts in the same invocation.
	figSet := false
	fs.Visit(func(f *flag.Flag) { figSet = figSet || f.Name == "fig" })
	var sel experiments.Selection
	if figSet || shared.Scenario == "" {
		if sel, err = experiments.Select(*fig); err != nil {
			return err
		}
	}
	if *jsonOut != "" {
		sel = sel.With(experiments.JSONArtifacts...)
	}
	if *svgDir != "" {
		sel = sel.With(experiments.SVGArtifacts...)
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

	res, err := sel.Run(opt, out)
	if err != nil {
		return err
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
		f, err := os.Create(*jsonOut)
		if err != nil {
			return err
		}
		if err := errors.Join(res.WriteJSON(f), f.Close()); err != nil {
			return err
		}
		fmt.Fprintf(out, "wrote JSON results to %s\n", *jsonOut)
	}
	if *svgDir != "" {
		if err := res.WriteSVGs(*svgDir); err != nil {
			return err
		}
		fmt.Fprintf(out, "wrote SVG figures to %s\n", *svgDir)
	}
	return nil
}

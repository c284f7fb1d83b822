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
// -parallel; results are bit-for-bit independent of the worker count.
// The flags sweep shares with afcsim and figures (-parallel, -check,
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
	"math"
	"os"
	"strings"

	"afcnet/internal/cli"
	"afcnet/internal/config"
	"afcnet/internal/experiments"
	"afcnet/internal/network"
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

func main() {
	log.SetFlags(0)
	log.SetPrefix("sweep: ")
	if err := run(flag.CommandLine, os.Args[1:], os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run parses args with fs, checks every input, then runs the sweep (or
// the scenario) and writes its report to stdout.
func run(fs *flag.FlagSet, args []string, stdout io.Writer) error {
	var (
		kindList = fs.String("kinds", "backpressured,backpressureless,drop,afc", "comma-separated router kinds")
		pattern  = fs.String("pattern", "uniform", "traffic pattern: uniform|transpose|bitcomp|neighbor|hotspot")
		minRate  = fs.Float64("min", 0.05, "minimum offered load (flits/node/cycle)")
		maxRate  = fs.Float64("max", 0.60, "maximum offered load")
		step     = fs.Float64("step", 0.05, "offered-load step")
		seeds    = fs.Int("seeds", 2, "repeated runs per point")
		warmup   = fs.Uint64("warmup", 10_000, "warmup cycles")
		measure  = fs.Uint64("measure", 30_000, "measurement cycles")
	)
	shared := cli.Register(fs, "instead of a rate sweep, run the JSON scenario spec at this path and report per-phase completion-time percentiles")
	if err := fs.Parse(args); err != nil {
		return err
	}

	rates, err := sweepRates(*minRate, *maxRate, *step)
	if err != nil {
		return err
	}
	seedList, err := sweepSeeds(*seeds)
	if err != nil {
		return err
	}
	var kinds []network.Kind
	for _, name := range strings.Split(*kindList, ",") {
		k, err := cli.Kind(strings.TrimSpace(name))
		if err != nil {
			return err
		}
		kinds = append(kinds, k)
	}
	mk, ok := patterns[*pattern]
	if !ok {
		return fmt.Errorf("unknown pattern %q", *pattern)
	}
	spec, err := shared.LoadScenario(config.Default().Mesh)
	if err != nil {
		return err
	}

	ob, finish, err := shared.Start("sweep", args, kinds, seedList)
	if err != nil {
		return err
	}
	opt := experiments.Default()
	opt.Seeds = seedList
	opt.OpenLoopWarmup = *warmup
	opt.OpenLoopMeasure = *measure
	opt = shared.Options(opt, ob)

	// The report is buffered so it prints after finish has closed the
	// progress line.
	var out bytes.Buffer
	if spec != nil {
		err = cli.RunScenario(&out, spec, kinds, opt)
	} else {
		experiments.WriteSweep(&out, experiments.LatencySweepPattern(kinds, rates, mk, opt))
		fmt.Fprintln(&out, "note: 'saturated' means mean total latency (including source queueing) exceeded the bound; see internal/experiments.")
	}
	err = errors.Join(err, finish())
	_, werr := out.WriteTo(stdout)
	return errors.Join(err, werr)
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

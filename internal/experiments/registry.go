package experiments

import (
	"fmt"
	"io"
	"slices"
	"strings"

	"afcnet/internal/cmp"
	"afcnet/internal/network"
)

// artifact is one entry of the evaluation's registry: a table or figure
// that `figures -fig <name>` prints.
type artifact struct {
	name string
	// partOf names the entry whose block prints this one under -fig all.
	partOf string
	// An artifact reads the closed-loop batch (closed) or makes a
	// harness call of its own that stores its result in r (run).
	closed *closedRead
	run    func(opt Options, r *Results) error
	// text renders the artifact from r, then returns the artifact's
	// check of its result.
	text func(w io.Writer, r *Results) error
}

// The closed-loop reads that several entries or renderers share.
var (
	lowEnergyRead = closedRead{cmp.LowLoad(), Fig2EnergyKinds}
	highRead      = closedRead{cmp.HighLoad(), Fig2Kinds}
	ratesRead     = closedRead{cmp.AllBenchmarks(), []network.Kind{network.Backpressured}}
)

// closedArtifact returns an entry that renders write over the rows of
// read.
func closedArtifact(name, partOf string, read closedRead, write func(io.Writer, []Measurement)) artifact {
	return artifact{name: name, partOf: partOf, closed: &read, text: func(w io.Writer, r *Results) error {
		write(w, r.closed.view(read))
		return nil
	}}
}

// harness returns an entry that stores run's result in the Results field
// at points to and renders it with write.
func harness[T any](name string, at func(*Results) *T, run func(Options) (T, error), write func(io.Writer, T)) artifact {
	return artifact{
		name: name,
		run:  func(opt Options, r *Results) (err error) { *at(r), err = run(opt); return err },
		text: func(w io.Writer, r *Results) error { write(w, *at(r)); return nil },
	}
}

// fig2 renders a Figure 2 table with its geometric means.
func fig2(title string) func(io.Writer, []Measurement) {
	return func(w io.Writer, ms []Measurement) { WriteFig2(w, title, append(ms, GeoMeans(ms)...)) }
}

// registry is the paper's evaluation, in the order `figures -fig all`
// prints it. It is the one list of the artifacts, their parameters and
// their titles.
var registry = []artifact{
	closedArtifact("2a", "", lowEnergyRead, fig2("Figure 2(a/b): low-load benchmarks (normalized to backpressured)")),
	closedArtifact("2b", "2a", lowEnergyRead, fig2("Figure 2(b): low-load energy (normalized to backpressured)")),
	closedArtifact("2c", "", highRead, fig2("Figure 2(c/d): high-load benchmarks (normalized to backpressured)")),
	closedArtifact("2d", "2c", highRead, fig2("Figure 2(c/d): high-load benchmarks (normalized to backpressured)")),
	closedArtifact("3a", "", closedRead{cmp.LowLoad(), Fig2Kinds}, func(w io.Writer, ms []Measurement) {
		WriteFig3(w, "Figure 3(a): energy breakdown, low-load benchmarks", ms)
	}),
	closedArtifact("3b", "", highRead, func(w io.Writer, ms []Measurement) {
		WriteFig3(w, "Figure 3(b): energy breakdown, high-load benchmarks", ms)
	}),
	closedArtifact("duty", "", closedRead{cmp.AllBenchmarks(), []network.Kind{network.Backpressured, network.AFC}}, WriteDuty),
	closedArtifact("rates", "", ratesRead, func(w io.Writer, ms []Measurement) { WriteTable3(w, table3Rows(ms)) }),
	harness("sweep", func(r *Results) *[]SweepPoint { return &r.Sweep }, func(opt Options) ([]SweepPoint, error) {
		rates := []float64{0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4, 0.45, 0.5, 0.55, 0.6}
		return LatencySweep([]network.Kind{network.Backpressured, network.Bless, network.BlessDrop, network.AFC}, rates, opt), nil
	}, WriteSweep),
	harness("quadrant", func(r *Results) *[]QuadrantResult { return &r.Quadrant }, func(opt Options) ([]QuadrantResult, error) {
		return Quadrant([]network.Kind{network.Backpressured, network.Bless, network.AFC}, 0.9, 0.1, opt), nil
	}, WriteQuadrant),
	{
		name: "gossip",
		run:  func(opt Options, r *Results) error { r.Gossip = GossipHotspot(opt.Seeds[0], opt); return nil },
		text: func(w io.Writer, r *Results) error {
			WriteGossip(w, r.Gossip)
			if g := r.Gossip; !g.Drained || g.Delivered != g.Created {
				return fmt.Errorf("experiments: gossip hotspot lost packets: %d of %d delivered, drained %v",
					g.Delivered, g.Created, g.Drained)
			}
			return nil
		},
	},
	harness("lazyvca", func(r *Results) *[]LazyVCARow { return &r.LazyVCA }, AblationLazyVCA, WriteLazyVCA),
	harness("thresholds", func(r *Results) *[]ThresholdRow { return &r.Thresholds }, func(opt Options) ([]ThresholdRow, error) {
		return AblationThresholds([]float64{0.5, 1.0, 2.0, 4.0}, opt)
	}, WriteThresholds),
	harness("sizing", func(r *Results) *[]BaselineConfigRow { return &r.Sizing }, AblationBaselineSizing, WriteBaselineSizing),
	harness("pipeline", func(r *Results) *[]PipelineRow { return &r.Pipeline }, AblationPipeline, WritePipeline),
	harness("metric", func(r *Results) *[]ContentionMetricRow { return &r.Metric }, func(opt Options) ([]ContentionMetricRow, error) {
		return AblationContentionMetric(opt), nil
	}, WriteContentionMetric),
	harness("ejectwidth", func(r *Results) *[]EjectRow { return &r.EjectWidth }, func(opt Options) ([]EjectRow, error) {
		return AblationEjectWidth([]int{1, 2, 3}, opt)
	}, WriteEjectWidth),
}

// Artifacts returns the registry's names, in the order `figures -fig
// all` prints them.
func Artifacts() []string {
	names := make([]string, len(registry))
	for i, a := range registry {
		names[i] = a.name
	}
	return names
}

// A Selection is the registry entries one evaluation computes, and the
// ones among them whose text it prints: bit i stands for registry entry
// i. The zero Selection computes nothing.
type Selection struct{ compute, print uint64 }

// Select returns the artifacts `figures -fig name` prints: the entry
// named name (in any case), or every entry for "all", where 2b and 2d
// print inside 2a's and 2c's blocks.
func Select(name string) (Selection, error) {
	var s Selection
	for i, a := range registry {
		if name == "all" && a.partOf == "" || strings.EqualFold(name, a.name) {
			s.compute |= 1 << i
		}
	}
	if s.compute == 0 {
		return s, fmt.Errorf("unknown artifact %q (want all or one of %s)", name, strings.Join(Artifacts(), " "))
	}
	s.print = s.compute
	return s, nil
}

// With returns s also computing the named artifacts, without printing
// them: what -json and -svg render.
func (s Selection) With(names ...string) Selection {
	for i, a := range registry {
		if slices.Contains(names, a.name) {
			s.compute |= 1 << i
		}
	}
	return s
}

// Run computes s's artifacts in registry order and returns their
// results. It first runs the closed-loop cells of every selected
// artifact as one runner batch, each cell once: for each benchmark, the
// union of the kinds the artifacts read. It then makes each artifact's
// harness call and writes the artifact's text to w as soon as it is
// computed, if the artifact prints; w may be nil. It stops at the first
// error, which may be an artifact's check of a result it has printed.
func (s Selection) Run(opt Options, w io.Writer) (*Results, error) {
	var reads []closedRead
	for i, a := range registry {
		if s.compute&(1<<i) != 0 && a.closed != nil {
			reads = append(reads, *a.closed)
		}
	}
	r := &Results{}
	var err error
	if r.closed, err = runClosed(reads, opt); err != nil {
		return nil, err
	}
	for i, a := range registry {
		if s.compute&(1<<i) == 0 {
			continue
		}
		if a.run != nil {
			if err := a.run(opt, r); err != nil {
				return nil, err
			}
		}
		out := io.Discard
		if s.print&(1<<i) != 0 && w != nil {
			out = w
		}
		if err := a.text(out, r); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// Evaluate computes the artifacts that `figures -fig name` prints and
// returns their results.
func Evaluate(opt Options, name string) (*Results, error) {
	s, err := Select(name)
	if err != nil {
		return nil, err
	}
	return s.Run(opt, nil)
}

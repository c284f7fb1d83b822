package experiments

import (
	"os"
	"path/filepath"
	"slices"

	"afcnet/internal/network"
	"afcnet/internal/viz"
)

// Fig2SVG renders a Figure 2 style grouped bar chart from closed-loop
// measurements. metric selects performance or energy.
func Fig2SVG(title, ylabel string, ms []Measurement, energy bool) string {
	// Groups are benchmarks and series are kinds, in first-row order.
	var groups []string
	var kinds []network.Kind
	for _, m := range ms {
		if !slices.Contains(groups, m.Bench) {
			groups = append(groups, m.Bench)
		}
		if !slices.Contains(kinds, m.Kind) {
			kinds = append(kinds, m.Kind)
		}
	}
	series := make([]viz.BarSeries, len(kinds))
	for i, k := range kinds {
		series[i] = viz.BarSeries{Name: k.String(), Val: make([]float64, len(groups)), Err: make([]float64, len(groups))}
	}
	for _, m := range ms {
		s, g := series[slices.Index(kinds, m.Kind)], slices.Index(groups, m.Bench)
		if energy {
			s.Val[g], s.Err[g] = m.Energy, m.EnergyStd
		} else {
			s.Val[g], s.Err[g] = m.Perf, m.PerfStd
		}
	}
	return viz.BarChart{
		Title:   title,
		YLabel:  ylabel,
		Groups:  groups,
		Series:  series,
		RefLine: 1,
	}.SVG()
}

// Fig3SVG renders a Figure 3 style stacked energy breakdown: one stacked
// bar per (bench, kind) pair.
func Fig3SVG(title string, ms []Measurement) string {
	var groups []string
	buffer := viz.StackSeries{Name: "buffer"}
	link := viz.StackSeries{Name: "link"}
	rest := viz.StackSeries{Name: "rest of router"}
	for _, m := range ms {
		groups = append(groups, m.Bench+"/"+shortKind(m.Kind))
		buffer.Val = append(buffer.Val, m.BufferE)
		link.Val = append(link.Val, m.LinkE)
		rest.Val = append(rest.Val, m.RestE)
	}
	return viz.StackedBarChart{
		Title:  title,
		YLabel: "energy (normalized to backpressured)",
		Groups: groups,
		Stacks: []viz.StackSeries{buffer, link, rest},
	}.SVG()
}

func shortKind(k network.Kind) string {
	switch k {
	case network.Backpressured:
		return "bp"
	case network.BackpressuredIdealBypass:
		return "bypass"
	case network.Bless:
		return "bless"
	case network.BlessDrop:
		return "drop"
	case network.AFC:
		return "afc"
	case network.AFCAlwaysBuffered:
		return "afc-abp"
	}
	return k.String()
}

// SweepSVG renders the open-loop latency curves.
func SweepSVG(pts []SweepPoint) string {
	// One series per kind, in first-point order.
	var series []viz.LineSeries
	for _, p := range pts {
		i := slices.IndexFunc(series, func(s viz.LineSeries) bool { return s.Name == p.Kind.String() })
		if i < 0 {
			i = len(series)
			series = append(series, viz.LineSeries{Name: p.Kind.String()})
		}
		series[i].X = append(series[i].X, p.Offered)
		series[i].Y = append(series[i].Y, p.Latency)
	}
	return viz.LineChart{
		Title:  "Open-loop latency vs. offered load (uniform random, 3x3)",
		XLabel: "offered load (flits/node/cycle)",
		YLabel: "mean total latency (cycles)",
		YCap:   250,
		Series: series,
	}.SVG()
}

// SVGArtifacts are the artifacts WriteSVGs renders; `figures -svg` adds
// them to its selection.
var SVGArtifacts = []string{"2a", "2c", "3a", "3b", "sweep"}

// WriteSVGs renders the main figure set of r into dir (created if
// needed): fig2a/b/c/d, fig3a/b and the sweep. Figure 3(a)'s chart
// stacks Figure 2(a)'s rows, the ideal-bypass bound included.
func (r *Results) WriteSVGs(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	lows := lowEnergyView.rows(r.closed)
	highs := highView.rows(r.closed)
	files := map[string]string{
		"fig2a.svg": Fig2SVG("Figure 2(a): performance, low load", "performance (normalized)", lows, false),
		"fig2b.svg": Fig2SVG("Figure 2(b): network energy, low load", "energy (normalized)", lows, true),
		"fig2c.svg": Fig2SVG("Figure 2(c): performance, high load", "performance (normalized)", highs, false),
		"fig2d.svg": Fig2SVG("Figure 2(d): network energy, high load", "energy (normalized)", highs, true),
		"fig3a.svg": Fig3SVG("Figure 3(a): energy breakdown, low load", lows),
		"fig3b.svg": Fig3SVG("Figure 3(b): energy breakdown, high load", highs),
		"sweep.svg": SweepSVG(r.Sweep),
	}
	for name, svg := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(svg), 0o644); err != nil {
			return err
		}
	}
	return nil
}

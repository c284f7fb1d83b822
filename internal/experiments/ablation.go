package experiments

import (
	"fmt"
	"io"

	"afcnet/internal/cmp"
	"afcnet/internal/config"
	"afcnet/internal/core"
	"afcnet/internal/network"
	"afcnet/internal/stats"
	"afcnet/internal/topology"
	"afcnet/internal/traffic"
)

// LazyVCARow compares the baseline backpressured router (64 flits/port)
// against AFC-always-backpressured (32 flits/port with lazy VC
// allocation) — the paper's Section III-E/V-A claim that lazy VC
// allocation halves buffering while matching performance and reducing
// buffer energy.
type LazyVCARow struct {
	Bench            string
	PerfRatio        float64 // AFC-always-BP / backpressured (≈1 expected)
	BufferEnergyCut  float64 // 1 - bufferE(AFC-aBP)/bufferE(BP)
	BufferSlotsRatio float64 // 32/64
}

// AblationLazyVCA runs the buffer-halving comparison on the high-load
// benchmarks (where buffering matters).
func AblationLazyVCA(opt Options) ([]LazyVCARow, error) { return lazyVCAView().run(opt) }

// lazyVCAView reads each high-load benchmark on the backpressured and
// AFC-always-backpressured networks.
func lazyVCAView() closedView[[]LazyVCARow] {
	benches := cmp.HighLoad()
	var cells []cell
	for _, p := range benches {
		cells = append(cells, on(p, network.Backpressured), on(p, network.AFCAlwaysBuffered))
	}
	return closedView[[]LazyVCARow]{cells, func(b *closedBatch) []LazyVCARow {
		sys := b.opt.system()
		ratio := float64(sys.AFC.BufferSlotsPerPort()) / float64(sys.Baseline.BufferSlotsPerPort())
		var out []LazyVCARow
		for _, p := range benches {
			base, ab := b.of(on(p, network.Backpressured)), b.of(on(p, network.AFCAlwaysBuffered))
			var perf, cut stats.Running
			for si := range base {
				perf.Add(ab[si].res.TransactionsPerCycle / base[si].res.TransactionsPerCycle)
				cut.Add(1 - ab[si].energy.Buffer()/base[si].energy.Buffer())
			}
			out = append(out, LazyVCARow{
				Bench:            p.Name,
				PerfRatio:        perf.Mean(),
				BufferEnergyCut:  cut.Mean(),
				BufferSlotsRatio: ratio,
			})
		}
		return out
	}}
}

// WriteLazyVCA renders the A1 ablation.
func WriteLazyVCA(w io.Writer, rows []LazyVCARow) {
	writeTable(w, "Ablation A1: lazy VC allocation (AFC always-backpressured, half the buffers, vs. baseline)",
		"bench\tperf ratio\tbuffer-energy cut\tbuffer slots ratio", rows, func(r LazyVCARow) string {
			return fmt.Sprintf("%s\t%.3f\t%.1f%%\t%.2f", r.Bench, r.PerfRatio, 100*r.BufferEnergyCut, r.BufferSlotsRatio)
		})
}

// ThresholdRow is one point of the contention-threshold sensitivity sweep
// (A2): the paper's thresholds scaled by Scale, measured on one low-load
// and one high-load workload.
type ThresholdRow struct {
	Scale float64
	// LowLoadEnergy: AFC energy on water normalized to backpressured
	// (lower is better; the right threshold keeps the router
	// backpressureless).
	LowLoadEnergy float64
	// HighLoadPerf: AFC performance on apache normalized to backpressured
	// (higher is better; the right threshold switches to backpressured).
	HighLoadPerf float64
	// BufferedFracLow/High: resulting duty cycles.
	BufferedFracLow, BufferedFracHigh float64
}

// AblationThresholds sweeps a multiplicative scale over the paper's
// position-specific thresholds.
func AblationThresholds(scales []float64, opt Options) ([]ThresholdRow, error) {
	return thresholdsView(scales).run(opt)
}

// thresholdsView reads water and apache on the backpressured network,
// which does not depend on the scale, and on AFC at each scale's
// thresholds. At scale 1 the AFC cells are the standard ones.
func thresholdsView(scales []float64) closedView[[]ThresholdRow] {
	low, _ := cmp.ByName("water")
	high, _ := cmp.ByName("apache")
	scaled := func(p cmp.Params, sc float64) cell {
		return cell{p, network.Config{Kind: network.AFC}, func(sys config.System) config.System {
			th := map[topology.Position]config.Thresholds{}
			for pos, t := range sys.AFC.ThresholdsByPosition {
				th[pos] = config.Thresholds{High: t.High * sc, Low: t.Low * sc}
			}
			sys.AFC.ThresholdsByPosition = th
			return sys
		}}
	}
	cells := []cell{on(low, network.Backpressured), on(high, network.Backpressured)}
	for _, sc := range scales {
		cells = append(cells, scaled(low, sc), scaled(high, sc))
	}
	return closedView[[]ThresholdRow]{cells, func(b *closedBatch) []ThresholdRow {
		baseLow, baseHigh := b.of(on(low, network.Backpressured)), b.of(on(high, network.Backpressured))
		var out []ThresholdRow
		for _, sc := range scales {
			afcLow, afcHigh := b.of(scaled(low, sc)), b.of(scaled(high, sc))
			var le, hp, bl, bh stats.Running
			for si := range baseLow {
				le.Add(afcLow[si].energy.Total() / baseLow[si].energy.Total())
				bl.Add(afcLow[si].mode.BufferedFraction())
				hp.Add(afcHigh[si].res.TransactionsPerCycle / baseHigh[si].res.TransactionsPerCycle)
				bh.Add(afcHigh[si].mode.BufferedFraction())
			}
			out = append(out, ThresholdRow{
				Scale:            sc,
				LowLoadEnergy:    le.Mean(),
				HighLoadPerf:     hp.Mean(),
				BufferedFracLow:  bl.Mean(),
				BufferedFracHigh: bh.Mean(),
			})
		}
		return out
	}}
}

// WriteThresholds renders the A2 ablation.
func WriteThresholds(w io.Writer, rows []ThresholdRow) {
	writeTable(w, "Ablation A2: contention-threshold sensitivity (scale x paper thresholds)",
		"scale\twater energy/BP\tapache perf/BP\tbuffered% (water)\tbuffered% (apache)", rows, func(r ThresholdRow) string {
			return fmt.Sprintf("%.2f\t%.3f\t%.3f\t%.1f%%\t%.1f%%",
				r.Scale, r.LowLoadEnergy, r.HighLoadPerf, 100*r.BufferedFracLow, 100*r.BufferedFracHigh)
		})
}

// EjectRow is one point of the ejection-width ablation (A4): the width of
// the local ejection path is the binding constraint for deflection
// routers at high load (a flit that loses ejection must circle back).
type EjectRow struct {
	Width     int
	BlessPerf float64 // bless perf / backpressured perf on apache
}

// AblationEjectWidth sweeps the ejection width.
func AblationEjectWidth(widths []int, opt Options) ([]EjectRow, error) {
	return ejectWidthView(widths).run(opt)
}

// ejectWidthView reads apache on the backpressured and backpressureless
// networks at each ejection width. At width 1 they are the standard
// cells.
func ejectWidthView(widths []int) closedView[[]EjectRow] {
	high, _ := cmp.ByName("apache")
	at := func(width int, kind network.Kind) cell {
		return cell{high, network.Config{Kind: kind}, func(sys config.System) config.System {
			sys.EjectWidth = width
			return sys
		}}
	}
	var cells []cell
	for _, w := range widths {
		cells = append(cells, at(w, network.Backpressured), at(w, network.Bless))
	}
	return closedView[[]EjectRow]{cells, func(b *closedBatch) []EjectRow {
		var out []EjectRow
		for _, w := range widths {
			base, bless := b.of(at(w, network.Backpressured)), b.of(at(w, network.Bless))
			var r stats.Running
			for si := range base {
				r.Add(bless[si].res.TransactionsPerCycle / base[si].res.TransactionsPerCycle)
			}
			out = append(out, EjectRow{Width: w, BlessPerf: r.Mean()})
		}
		return out
	}}
}

// WriteEjectWidth renders the A4 ablation.
func WriteEjectWidth(w io.Writer, rows []EjectRow) {
	writeTable(w, "Ablation A4: ejection width vs. backpressureless high-load degradation (apache)",
		"eject width\tbless perf / backpressured", rows, func(r EjectRow) string {
			return fmt.Sprintf("%d\t%.3f", r.Width, r.BlessPerf)
		})
}

// BaselineConfigRow is one point of the baseline-sizing ablation (A5):
// the paper states its 2+2+4 VCs x 8-flit configuration is
// energy-optimized — "adding more VCs (or increasing buffer-depths)
// resulted in no significant performance improvement" — so extra buffers
// cost energy for nothing.
type BaselineConfigRow struct {
	Label     string
	VCsPerVN  [3]int
	BufDepth  int
	Perf      float64 // vs. the paper's baseline configuration
	Energy    float64 // vs. the paper's baseline configuration
	SlotsPort int
}

// AblationBaselineSizing measures apache on the paper's baseline, a
// double-VC variant and a double-depth variant.
func AblationBaselineSizing(opt Options) ([]BaselineConfigRow, error) { return sizingView().run(opt) }

// sizingView reads apache on the backpressured network of each variant.
// The paper's variant is the standard cell.
func sizingView() closedView[[]BaselineConfigRow] {
	high, _ := cmp.ByName("apache")
	variants := []struct {
		label string
		vcs   [3]int
		depth int
	}{
		{"paper (2+2+4 x8)", [3]int{2, 2, 4}, 8},
		{"double VCs (4+4+8 x8)", [3]int{4, 4, 8}, 8},
		{"double depth (2+2+4 x16)", [3]int{2, 2, 4}, 16},
	}
	sized := func(vcs [3]int, depth int) cell {
		return cell{high, network.Config{Kind: network.Backpressured}, func(sys config.System) config.System {
			sys.Baseline.VCsPerVN = vcs
			sys.Baseline.BufDepth = depth
			return sys
		}}
	}
	var cells []cell
	for _, v := range variants {
		cells = append(cells, sized(v.vcs, v.depth))
	}
	return closedView[[]BaselineConfigRow]{cells, func(b *closedBatch) []BaselineConfigRow {
		var out []BaselineConfigRow
		var basePerf, baseEnergy stats.Running
		for vi, v := range variants {
			var perf, en stats.Running
			for _, o := range b.of(sized(v.vcs, v.depth)) {
				perf.Add(o.res.TransactionsPerCycle)
				en.Add(o.energy.Total())
			}
			if vi == 0 {
				basePerf, baseEnergy = perf, en
			}
			out = append(out, BaselineConfigRow{
				Label:     v.label,
				VCsPerVN:  v.vcs,
				BufDepth:  v.depth,
				Perf:      perf.Mean() / basePerf.Mean(),
				Energy:    en.Mean() / baseEnergy.Mean(),
				SlotsPort: (v.vcs[0] + v.vcs[1] + v.vcs[2]) * v.depth,
			})
		}
		return out
	}}
}

// WriteBaselineSizing renders the A5 ablation.
func WriteBaselineSizing(w io.Writer, rows []BaselineConfigRow) {
	writeTable(w, "Ablation A5: baseline buffer sizing on apache (paper: configuration is energy-optimized)",
		"config\tslots/port\tperf\tenergy", rows, func(r BaselineConfigRow) string {
			return fmt.Sprintf("%s\t%d\t%.3f\t%.3f", r.Label, r.SlotsPort, r.Perf, r.Energy)
		})
}

// PipelineRow is one point of the router-pipeline ablation (A6): the
// paper's baseline charitably assumes 0-cycle VC allocation; realistic
// backpressured routers degrade to a 3-stage pipeline at high load
// (Section II). AFC needs no VCA stage at all (lazy allocation), so the
// charitable assumption favors the baseline.
type PipelineRow struct {
	Bench string
	// RealisticPerf is the 3-stage baseline's performance relative to the
	// paper's ideal 2-stage baseline (< 1).
	RealisticPerf float64
	// AFCvsIdeal / AFCvsRealistic: AFC performance against each baseline.
	AFCvsIdeal     float64
	AFCvsRealistic float64
}

// AblationPipeline measures the ideal-vs-realistic baseline pipeline on
// one low-load and one high-load workload.
func AblationPipeline(opt Options) ([]PipelineRow, error) { return pipelineView().run(opt) }

// pipelineView reads water and apache on the ideal and the realistic
// backpressured networks and on AFC. The ideal and AFC cells are the
// standard ones.
func pipelineView() closedView[[]PipelineRow] {
	var benches []cmp.Params
	for _, name := range []string{"water", "apache"} {
		p, _ := cmp.ByName(name)
		benches = append(benches, p)
	}
	realisticCell := func(p cmp.Params) cell {
		return cell{p, network.Config{Kind: network.Backpressured}, func(sys config.System) config.System {
			sys.Baseline.RealisticVCA = true
			return sys
		}}
	}
	var cells []cell
	for _, p := range benches {
		cells = append(cells, on(p, network.Backpressured), realisticCell(p), on(p, network.AFC))
	}
	return closedView[[]PipelineRow]{cells, func(b *closedBatch) []PipelineRow {
		var out []PipelineRow
		for _, p := range benches {
			ideal, realistic, afc := b.of(on(p, network.Backpressured)), b.of(realisticCell(p)), b.of(on(p, network.AFC))
			var rp, ai, ar stats.Running
			for si := range ideal {
				rp.Add(realistic[si].res.TransactionsPerCycle / ideal[si].res.TransactionsPerCycle)
				ai.Add(afc[si].res.TransactionsPerCycle / ideal[si].res.TransactionsPerCycle)
				ar.Add(afc[si].res.TransactionsPerCycle / realistic[si].res.TransactionsPerCycle)
			}
			out = append(out, PipelineRow{
				Bench:          p.Name,
				RealisticPerf:  rp.Mean(),
				AFCvsIdeal:     ai.Mean(),
				AFCvsRealistic: ar.Mean(),
			})
		}
		return out
	}}
}

// WritePipeline renders the A6 ablation.
func WritePipeline(w io.Writer, rows []PipelineRow) {
	writeTable(w, "Ablation A6: ideal (0-cycle VCA) vs. realistic (3-stage) backpressured pipeline",
		"bench\trealistic/ideal\tAFC/ideal\tAFC/realistic", rows, func(r PipelineRow) string {
			return fmt.Sprintf("%s\t%.3f\t%.3f\t%.3f", r.Bench, r.RealisticPerf, r.AFCvsIdeal, r.AFCvsRealistic)
		})
}

// ContentionMetricRow compares where forward switches happen under the
// paper's local contention thresholds versus the rejected
// cumulative-misroute policy (ablation A7, Section III-B): with misroute
// counting, "high contention may be detected in an incorrect network
// region" because a deflected flit trips its threshold only after leaving
// the hot region.
type ContentionMetricRow struct {
	Policy string
	// NearFraction is the fraction of forward switches at routers within
	// two hops of the hotspot.
	NearFraction float64
	// Switches is the total forward-switch count.
	Switches uint64
}

// AblationContentionMetric runs an 8x8 hotspot under both policies.
func AblationContentionMetric(opt Options) []ContentionMetricRow {
	mesh := topology.NewMesh(8, 8)
	sys := config.DefaultWithMesh(mesh)
	hot := mesh.Node(1, 1)
	policies := []struct {
		name      string
		threshold int
	}{
		{"local contention thresholds (paper)", 0},
		{"cumulative misroutes (rejected)", 3},
	}
	type metricOut struct{ near, total uint64 }
	ns := len(opt.Seeds)
	outs, err := mapCells(len(policies)*ns, opt, func(w *workerState, i int) (metricOut, error) {
		e := w.acquire(network.Config{
			System: sys, Kind: network.AFC, Seed: opt.Seeds[i%ns],
			MisrouteThreshold: policies[i/ns].threshold,
		})
		net := e.net
		net.AddTicker(e.generator(traffic.Config{
			Pattern: traffic.Hotspot{Mesh: mesh, Hot: hot, Frac: 0.5},
			Rate:    0.22,
		}))
		net.Run(opt.OpenLoopWarmup + opt.OpenLoopMeasure)
		var o metricOut
		for n := 0; n < net.Nodes(); n++ {
			r, ok := net.Router(topology.NodeID(n)).(*core.Router)
			if !ok {
				continue
			}
			f := r.ForwardSwitches()
			o.total += f
			if mesh.Distance(topology.NodeID(n), hot) <= 2 {
				o.near += f
			}
		}
		return o, nil
	})
	if err != nil {
		panic(err) // cells cannot fail; a recovered panic propagates as before
	}
	var out []ContentionMetricRow
	for pi, p := range policies {
		var near, total uint64
		for si := 0; si < ns; si++ {
			near += outs[pi*ns+si].near
			total += outs[pi*ns+si].total
		}
		frac := 0.0
		if total > 0 {
			frac = float64(near) / float64(total)
		}
		out = append(out, ContentionMetricRow{Policy: p.name, NearFraction: frac, Switches: total})
	}
	return out
}

// WriteContentionMetric renders the A7 ablation.
func WriteContentionMetric(w io.Writer, rows []ContentionMetricRow) {
	writeTable(w, "Ablation A7: where forward switches fire under an 8x8 hotspot (within 2 hops = correct region)",
		"policy\tswitches\tnear-hotspot fraction", rows, func(r ContentionMetricRow) string {
			return fmt.Sprintf("%s\t%d\t%.0f%%", r.Policy, r.Switches, 100*r.NearFraction)
		})
}

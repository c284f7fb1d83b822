package experiments

import (
	"fmt"
	"io"

	"afcnet/internal/cmp"
	"afcnet/internal/config"
	"afcnet/internal/core"
	"afcnet/internal/network"
	"afcnet/internal/runner"
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
func AblationLazyVCA(opt Options) ([]LazyVCARow, error) {
	sys := config.Default()
	ratio := float64(sys.AFC.BufferSlotsPerPort()) / float64(sys.Baseline.BufferSlotsPerPort())
	benches := cmp.HighLoad()
	type lazyOut struct{ perf, cut float64 }
	ns := len(opt.Seeds)
	outs, err := runner.Map(len(benches)*ns, opt.pool(), func(i int) (lazyOut, error) {
		p := benches[i/ns]
		seed := opt.Seeds[i%ns]
		base, baseNet, err := runCell(p, metered(network.Backpressured, seed), opt)
		if err != nil {
			return lazyOut{}, err
		}
		ab, abNet, err := runCell(p, metered(network.AFCAlwaysBuffered, seed), opt)
		if err != nil {
			return lazyOut{}, err
		}
		be := baseNet.TotalEnergy().Buffer()
		ae := abNet.TotalEnergy().Buffer()
		return lazyOut{
			perf: ab.TransactionsPerCycle / base.TransactionsPerCycle,
			cut:  1 - ae/be,
		}, nil
	})
	if err != nil {
		return nil, err
	}
	var out []LazyVCARow
	for bi, p := range benches {
		var perf, cut stats.Running
		for si := 0; si < ns; si++ {
			perf.Add(outs[bi*ns+si].perf)
			cut.Add(outs[bi*ns+si].cut)
		}
		out = append(out, LazyVCARow{
			Bench:            p.Name,
			PerfRatio:        perf.Mean(),
			BufferEnergyCut:  cut.Mean(),
			BufferSlotsRatio: ratio,
		})
	}
	return out, nil
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
	low, _ := cmp.ByName("water")
	high, _ := cmp.ByName("apache")
	// Each cell runs one workload on one network; for every seed, water
	// then apache. The backpressured baselines come first and once: they
	// do not depend on the scale. Then AFC at each scale's thresholds,
	// one scaled system per scale shared read-only by its cells.
	type cell struct {
		p   cmp.Params
		cfg network.Config
	}
	var cells []cell
	addPairs := func(cfg network.Config) {
		for _, seed := range opt.Seeds {
			cfg.Seed = seed
			cells = append(cells, cell{low, cfg}, cell{high, cfg})
		}
	}
	addPairs(metered(network.Backpressured, 0))
	for _, sc := range scales {
		cfg := metered(network.AFC, 0)
		cfg.System = config.Default()
		th := map[topology.Position]config.Thresholds{}
		for pos, t := range cfg.System.AFC.ThresholdsByPosition {
			th[pos] = config.Thresholds{High: t.High * sc, Low: t.Low * sc}
		}
		cfg.System.AFC.ThresholdsByPosition = th
		addPairs(cfg)
	}
	type thOut struct{ tx, energy, buffered float64 }
	outs, err := runner.Map(len(cells), opt.pool(), func(i int) (thOut, error) {
		res, net, err := runCell(cells[i].p, cells[i].cfg, opt)
		if err != nil {
			return thOut{}, err
		}
		return thOut{res.TransactionsPerCycle, net.TotalEnergy().Total(), net.ModeStats().BufferedFraction()}, nil
	})
	if err != nil {
		return nil, err
	}
	ns := len(opt.Seeds)
	var out []ThresholdRow
	for sci, sc := range scales {
		var le, hp, bl, bh stats.Running
		for si := 0; si < ns; si++ {
			base, afc := outs[2*si:], outs[2*ns*(sci+1)+2*si:]
			le.Add(afc[0].energy / base[0].energy)
			bl.Add(afc[0].buffered)
			hp.Add(afc[1].tx / base[1].tx)
			bh.Add(afc[1].buffered)
		}
		out = append(out, ThresholdRow{
			Scale:            sc,
			LowLoadEnergy:    le.Mean(),
			HighLoadPerf:     hp.Mean(),
			BufferedFracLow:  bl.Mean(),
			BufferedFracHigh: bh.Mean(),
		})
	}
	return out, nil
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
	high, _ := cmp.ByName("apache")
	ns := len(opt.Seeds)
	outs, err := runner.Map(len(widths)*ns, opt.pool(), func(i int) (float64, error) {
		w := widths[i/ns]
		seed := opt.Seeds[i%ns]
		sys := config.Default()
		sys.EjectWidth = w
		baseRes, _, err := runCell(high, network.Config{System: sys, Kind: network.Backpressured, Seed: seed}, opt)
		if err != nil {
			return 0, err
		}
		res, _, err := runCell(high, network.Config{System: sys, Kind: network.Bless, Seed: seed}, opt)
		if err != nil {
			return 0, err
		}
		return res.TransactionsPerCycle / baseRes.TransactionsPerCycle, nil
	})
	if err != nil {
		return nil, err
	}
	var out []EjectRow
	for wi, w := range widths {
		var r stats.Running
		for si := 0; si < ns; si++ {
			r.Add(outs[wi*ns+si])
		}
		out = append(out, EjectRow{Width: w, BlessPerf: r.Mean()})
	}
	return out, nil
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
func AblationBaselineSizing(opt Options) ([]BaselineConfigRow, error) {
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
	type sizeOut struct{ perf, energy float64 }
	ns := len(opt.Seeds)
	outs, err := runner.Map(len(variants)*ns, opt.pool(), func(i int) (sizeOut, error) {
		v := variants[i/ns]
		seed := opt.Seeds[i%ns]
		sys := config.Default()
		sys.Baseline.VCsPerVN = v.vcs
		sys.Baseline.BufDepth = v.depth
		res, net, err := runCell(high, network.Config{System: sys, Kind: network.Backpressured, Seed: seed, MeterEnergy: true}, opt)
		if err != nil {
			return sizeOut{}, err
		}
		return sizeOut{perf: res.TransactionsPerCycle, energy: net.TotalEnergy().Total()}, nil
	})
	if err != nil {
		return nil, err
	}
	var out []BaselineConfigRow
	var basePerf, baseEnergy stats.Running
	for vi, v := range variants {
		var perf, en stats.Running
		for si := 0; si < ns; si++ {
			perf.Add(outs[vi*ns+si].perf)
			en.Add(outs[vi*ns+si].energy)
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
	return out, nil
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
func AblationPipeline(opt Options) ([]PipelineRow, error) {
	names := []string{"water", "apache"}
	type pipeOut struct{ rp, ai, ar float64 }
	ns := len(opt.Seeds)
	outs, err := runner.Map(len(names)*ns, opt.pool(), func(i int) (pipeOut, error) {
		name := names[i/ns]
		seed := opt.Seeds[i%ns]
		p, _ := cmp.ByName(name)
		ideal, _, err := runCell(p, metered(network.Backpressured, seed), opt)
		if err != nil {
			return pipeOut{}, err
		}
		sys := config.Default()
		sys.Baseline.RealisticVCA = true
		realistic, _, err := runCell(p, network.Config{System: sys, Kind: network.Backpressured, Seed: seed}, opt)
		if err != nil {
			return pipeOut{}, err
		}
		afc, _, err := runCell(p, metered(network.AFC, seed), opt)
		if err != nil {
			return pipeOut{}, err
		}
		return pipeOut{
			rp: realistic.TransactionsPerCycle / ideal.TransactionsPerCycle,
			ai: afc.TransactionsPerCycle / ideal.TransactionsPerCycle,
			ar: afc.TransactionsPerCycle / realistic.TransactionsPerCycle,
		}, nil
	})
	if err != nil {
		return nil, err
	}
	var out []PipelineRow
	for ni, name := range names {
		var rp, ai, ar stats.Running
		for si := 0; si < ns; si++ {
			o := outs[ni*ns+si]
			rp.Add(o.rp)
			ai.Add(o.ai)
			ar.Add(o.ar)
		}
		out = append(out, PipelineRow{
			Bench:          name,
			RealisticPerf:  rp.Mean(),
			AFCvsIdeal:     ai.Mean(),
			AFCvsRealistic: ar.Mean(),
		})
	}
	return out, nil
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
	outs, err := runner.Map(len(policies)*ns, opt.pool(), func(i int) (metricOut, error) {
		misroute := policies[i/ns].threshold
		seed := opt.Seeds[i%ns]
		net := opt.newWorkerState().acquire(network.Config{
			System: sys, Kind: network.AFC, Seed: seed,
			MisrouteThreshold: misroute,
		}).net
		gen := traffic.NewGenerator(net, traffic.Config{
			Pattern: traffic.Hotspot{Mesh: mesh, Hot: hot, Frac: 0.5},
			Rate:    0.22,
		}, net.RandStream)
		net.AddTicker(gen)
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

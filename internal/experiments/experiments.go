// Package experiments implements the paper's evaluation (see DESIGN.md's
// per-experiment index). Its registry (registry.go) lists every table
// and figure once: its name, the closed-loop measurements it reads or
// the harness call it makes, and its text renderer. An evaluation
// (Evaluate, Selection.Run) runs the closed-loop cells of all its
// artifacts as one batch, each cell once, and returns one Results that
// the text, WriteJSON and WriteSVGs all render from. cmd/figures and the
// repository's BenchmarkArtifact both evaluate through the registry, so
// the printed rows and the benchmarked rows are the same code path.
package experiments

import (
	"fmt"
	"io"
	"slices"
	"text/tabwriter"

	"afcnet/internal/check"
	"afcnet/internal/cmp"
	"afcnet/internal/config"
	"afcnet/internal/energy"
	"afcnet/internal/network"
	"afcnet/internal/obs"
	"afcnet/internal/runner"
	"afcnet/internal/stats"
	"afcnet/internal/traffic"
)

// Options controls run length and repetition.
type Options struct {
	// Seeds: one full run per seed; means and standard deviations across
	// seeds reproduce the paper's variance bars.
	Seeds []int64
	// WarmupTx / MeasureTx: closed-loop transactions before/inside the
	// measurement window.
	WarmupTx, MeasureTx uint64
	// CycleLimit aborts runaway runs.
	CycleLimit uint64
	// OpenLoopWarmup / OpenLoopMeasure: cycles for open-loop windows.
	OpenLoopWarmup, OpenLoopMeasure uint64
	// Parallelism is the worker count the harnesses fan their
	// (bench, kind, seed) cells across; <= 0 selects GOMAXPROCS.
	// Parallelism == 1 reproduces the historical serial execution exactly;
	// any value produces bit-for-bit identical results (each cell owns its
	// network and random substreams, and cells are merged in index order).
	Parallelism int
	// Check attaches an invariant checker (internal/check) to every
	// network the harnesses build. A violation panics inside the cell;
	// the worker pool surfaces it as that cell's error. The checker
	// only observes, so checked results are bit-for-bit identical to
	// unchecked ones — it just costs wall clock, hence off by default.
	Check bool
	// Obs, if non-nil, observes the run (internal/obs): per-cell
	// timings and batch progress flow to it through the runner
	// callbacks, and every network a harness builds gets a read-only
	// counter sampler when metrics are enabled. Like Check, it is
	// purely observational — results are bit-for-bit identical with or
	// without it.
	Obs *obs.Observer
	// System overrides the machine configuration (mesh size, buffer
	// depths, …) for every network the harnesses build; the zero value
	// keeps config.Default(). A cell that sets its own System wins.
	System config.System
	// Shards builds every network with the sharded tick
	// (network.Config.Shards): each cycle's router bank splits across a
	// persistent worker group with a deterministic two-phase barrier.
	// Results match the serial kernel for any shard count; <= 1 keeps
	// the serial reference path.
	Shards int
}

// netConfig fills what cfg leaves unset from the options: the machine
// configuration and the shard count. A cell that sets its own System or
// Shards wins.
func (o Options) netConfig(cfg network.Config) network.Config {
	if cfg.System.Mesh.Width == 0 {
		cfg.System = o.System
	}
	if cfg.Shards <= 1 {
		cfg.Shards = o.Shards
	}
	return cfg
}

// attach adds the options' observers to a cell's network: the invariant
// checker when opt.Check is set, then the counter sampler and barrier
// timing when opt.Obs collects them. The order fixes the kernel's ticker
// list and the seed source's stream numbering, so a fresh build and a
// rewound network must both attach through here.
func (o Options) attach(net *network.Network) {
	if o.Check {
		check.Attach(net)
	}
	o.Obs.Sample(net)
	o.Obs.ObserveBarrier(net)
}

// workerEnt is one worker's reusable simulation stack for one network
// kind: the network plus whichever traffic layer the harness attached.
// Consecutive cells of the same kind on the same worker rewind and reuse
// it instead of rebuilding, which is what makes the steady-state loop
// allocation-free across a sweep.
type workerEnt struct {
	net *network.Network
	sys *cmp.System
	gen *traffic.Generator
}

// workerState is the per-worker context of one harness batch: the
// reusable networks keyed by kind, and scratch the cells would otherwise
// reallocate. Each runner worker owns exactly one, so nothing here is
// synchronized.
type workerState struct {
	opt   Options
	ents  map[network.Kind]*workerEnt
	rates []float64 // per-node offered-rate scratch (Quadrant)
}

// newWorkerState returns a workerState with no networks yet.
func (o Options) newWorkerState() *workerState {
	return &workerState{opt: o, ents: make(map[network.Kind]*workerEnt)}
}

// mapCells runs cell(w, i) for every i in [0, n) on the options' pool,
// where w is the state of the worker that runs cell i.
func mapCells[T any](n int, opt Options, cell func(w *workerState, i int) (T, error)) ([]T, error) {
	ro := opt.pool()
	ws := make([]*workerState, ro.Workers(n))
	for i := range ws {
		ws[i] = opt.newWorkerState()
	}
	return runner.MapWorkers(n, ro, func(worker, i int) (T, error) { return cell(ws[worker], i) })
}

// generator returns the entry's traffic generator set to tcfg: built on
// first use, reattached after. The caller adds it to the tickers.
func (e *workerEnt) generator(tcfg traffic.Config) *traffic.Generator {
	if e.gen == nil {
		e.gen = traffic.NewGenerator(e.net, tcfg, e.net.RandStream)
	} else {
		e.gen.Reattach(tcfg)
	}
	return e.gen
}

// acquire returns a ready network for cfg: the worker's previous network
// of the same kind rewound in place when the configuration allows (same
// everything but Seed), a fresh build otherwise. A rebuilt entry has nil
// sys/gen — the caller's cue to construct its traffic layer instead of
// reattaching it.
func (w *workerState) acquire(cfg network.Config) *workerEnt {
	cfg = w.opt.netConfig(cfg)
	e := w.ents[cfg.Kind]
	if e == nil || !e.net.Reset(cfg) {
		e = &workerEnt{net: network.New(cfg)}
		w.ents[cfg.Kind] = e
	}
	w.opt.attach(e.net)
	return e
}

// pool returns the runner options shared by every harness.
func (o Options) pool() runner.Options {
	ro := runner.Options{Parallelism: o.Parallelism}
	o.Obs.Hook(&ro)
	return ro
}

// Default returns the options used for the recorded results in
// EXPERIMENTS.md.
func Default() Options {
	return Options{
		Seeds:           []int64{1, 2, 3},
		WarmupTx:        2000,
		MeasureTx:       6000,
		CycleLimit:      30_000_000,
		OpenLoopWarmup:  10_000,
		OpenLoopMeasure: 30_000,
	}
}

// Quick returns reduced options for fast regression benches.
func Quick() Options {
	return Options{
		Seeds:           []int64{1},
		WarmupTx:        800,
		MeasureTx:       2500,
		CycleLimit:      10_000_000,
		OpenLoopWarmup:  4_000,
		OpenLoopMeasure: 10_000,
	}
}

// Fig2Kinds are the configurations compared in Figure 2, baseline first
// (normalization target).
var Fig2Kinds = []network.Kind{
	network.Backpressured,
	network.Bless,
	network.AFCAlwaysBuffered,
	network.AFC,
}

// Fig2EnergyKinds adds the ideal-bypass energy bound (shown only on the
// low-load energy graph in the paper).
var Fig2EnergyKinds = append([]network.Kind{network.BackpressuredIdealBypass}, Fig2Kinds...)

// Measurement is one closed-loop (bench, kind) cell aggregated over seeds.
type Measurement struct {
	Bench string
	Kind  network.Kind

	// Perf is performance normalized to the backpressured baseline
	// (transactions/cycle ratio; higher is better). Figure 2(a)/(c).
	Perf, PerfStd float64
	// Energy is network energy normalized to the baseline (lower is
	// better). Figure 2(b)/(d).
	Energy, EnergyStd float64

	// Breakdown components normalized to the baseline's total energy
	// (Figure 3): buffer, link, rest-of-router.
	BufferE, LinkE, RestE float64

	// Raw measurements (seed-averaged).
	TxPerCycle    float64
	InjectionRate float64
	NetLatency    float64

	// AFC mode statistics (zero for non-AFC kinds).
	BufferedFraction float64
	GossipSwitches   float64
	EscapeEvents     float64
}

// A cell is one closed-loop simulation: workload p on a network built
// for cfg, run once per seed of its batch. cfg.Seed is ignored, and every
// cell meters energy.
type cell struct {
	p   cmp.Params
	cfg network.Config
}

// closedOut is one seed of a cell: everything the views read, so the
// network itself need not be retained.
type closedOut struct {
	res    cmp.RunResult
	energy energy.Breakdown
	mode   network.ModeStats
}

// closedBatch is one closed-loop batch: its distinct cells and each
// one's output at every seed of the options.
type closedBatch struct {
	opt   Options
	cells []cell
	outs  [][]closedOut // outs[i][s] is cells[i] at opt.Seeds[s]
}

// newClosedBatch returns a batch of the distinct cells of cells, in
// first-named order, with no outputs yet.
func newClosedBatch(cells []cell, opt Options) *closedBatch {
	b := &closedBatch{opt: opt}
	for _, c := range cells {
		if b.index(c) < 0 {
			b.cells = append(b.cells, c)
		}
	}
	return b
}

// config returns the configuration c's network is built for at seed.
func (b *closedBatch) config(c cell, seed int64) network.Config {
	cfg := b.opt.netConfig(c.cfg)
	cfg.Seed, cfg.MeterEnergy = seed, true
	return cfg
}

// index returns the position of the batch's cell that runs what c runs
// (the same workload on the same network but for its seed), or -1.
func (b *closedBatch) index(c cell) int {
	return slices.IndexFunc(b.cells, func(d cell) bool {
		return d.p == c.p && network.SameNetwork(b.config(d, 0), b.config(c, 0))
	})
}

// of returns c's output at each seed. The batch must hold c.
func (b *closedBatch) of(c cell) []closedOut {
	i := b.index(c)
	if i < 0 {
		panic(fmt.Sprintf("experiments: %s on %s is not in the batch", c.p.Name, c.cfg.Kind))
	}
	return b.outs[i]
}

// runClosed runs each distinct cell of cells once per seed as one runner
// batch, every run on a worker's reusable network and CMP substrate.
func runClosed(cells []cell, opt Options) (*closedBatch, error) {
	b := newClosedBatch(cells, opt)
	ns := len(opt.Seeds)
	outs, err := mapCells(len(b.cells)*ns, opt, func(w *workerState, i int) (closedOut, error) {
		c := b.cells[i/ns]
		e := w.acquire(b.config(c, opt.Seeds[i%ns]))
		if e.sys == nil {
			e.sys = cmp.NewSystem(e.net, c.p, e.net.RandStream)
		} else {
			e.sys.Reattach(c.p)
		}
		res, ok := e.sys.Measure(opt.WarmupTx, opt.MeasureTx, opt.CycleLimit)
		if !ok {
			return closedOut{}, fmt.Errorf("experiments: %s on %s exceeded %d cycles",
				c.p.Name, c.cfg.Kind, opt.CycleLimit)
		}
		return closedOut{res: res, energy: e.net.TotalEnergy(), mode: e.net.ModeStats()}, nil
	})
	if err != nil {
		return nil, err
	}
	for i := range b.cells {
		b.outs = append(b.outs, outs[i*ns:(i+1)*ns])
	}
	return b, nil
}

// A closedView is a table or figure computed from closed-loop cells:
// the cells it reads, and its rows from their outputs.
type closedView[T any] struct {
	cells []cell
	rows  func(b *closedBatch) T
}

// run measures v's cells as one batch and returns v's rows.
func (v closedView[T]) run(opt Options) (T, error) {
	b, err := runClosed(v.cells, opt)
	if err != nil {
		var none T
		return none, err
	}
	return v.rows(b), nil
}

// on is the cell that runs p on a network of kind on the options'
// machine.
func on(p cmp.Params, kind network.Kind) cell {
	return cell{p, network.Config{Kind: kind}}
}

// measured is the view of one Measurement per benchmark and kind,
// benchmark-major. It reads each benchmark's cell on every kind and on
// the backpressured baseline, the normalization target.
func measured(benches []cmp.Params, kinds []network.Kind) closedView[[]Measurement] {
	var cells []cell
	for _, p := range benches {
		cells = append(cells, on(p, network.Backpressured))
		for _, k := range kinds {
			cells = append(cells, on(p, k))
		}
	}
	return closedView[[]Measurement]{cells, func(b *closedBatch) []Measurement {
		var out []Measurement
		for _, p := range benches {
			base := b.of(on(p, network.Backpressured))
			for _, k := range kinds {
				var a cellAgg
				for si, co := range b.of(on(p, k)) {
					a.add(co, base[si])
				}
				out = append(out, Measurement{
					Bench: p.Name, Kind: k,
					Perf: a.perf.Mean(), PerfStd: a.perf.StdDev(),
					Energy: a.energy.Mean(), EnergyStd: a.energy.StdDev(),
					BufferE: a.bufferE.Mean(), LinkE: a.linkE.Mean(), RestE: a.restE.Mean(),
					TxPerCycle: a.tx.Mean(), InjectionRate: a.inj.Mean(), NetLatency: a.lat.Mean(),
					BufferedFraction: a.bufFrac.Mean(),
					GossipSwitches:   a.gossip.Mean(),
					EscapeEvents:     a.escape.Mean(),
				})
			}
		}
		return out
	}}
}

// ClosedLoop runs the Figure 2/3 measurement for the given benchmarks and
// kinds. The backpressured baseline is always run (it is the
// normalization target) even if absent from kinds. The (bench, kind,
// seed) cells execute on opt.Parallelism workers; each cell owns its
// network and random substreams, and every row is aggregated in seed
// order, so results are identical at any parallelism.
func ClosedLoop(benches []cmp.Params, kinds []network.Kind, opt Options) ([]Measurement, error) {
	return measured(benches, kinds).run(opt)
}

// cellAgg accumulates one (bench, kind) row over seeds.
type cellAgg struct {
	perf, energy, bufferE, linkE, restE   stats.Running
	tx, inj, lat, bufFrac, gossip, escape stats.Running
}

// add adds one seed's cell, normalized to that seed's baseline cell.
func (a *cellAgg) add(co, base closedOut) {
	e, ms := co.energy, co.mode
	baseEnergy := base.energy.Total()
	a.perf.Add(co.res.TransactionsPerCycle / base.res.TransactionsPerCycle)
	a.energy.Add(e.Total() / baseEnergy)
	a.bufferE.Add(e.Buffer() / baseEnergy)
	a.linkE.Add(e.Link / baseEnergy)
	a.restE.Add(e.Rest() / baseEnergy)
	a.tx.Add(co.res.TransactionsPerCycle)
	a.inj.Add(co.res.InjectionRate)
	a.lat.Add(co.res.MeanNetLatency)
	a.bufFrac.Add(ms.BufferedFraction())
	a.gossip.Add(float64(ms.GossipSwitches))
	a.escape.Add(float64(ms.EscapeEvents))
}

// GeoMeans appends per-kind geometric-mean rows (bench "geomean") over
// the normalized performance and energy of ms.
func GeoMeans(ms []Measurement) []Measurement {
	var out []Measurement
	for _, m := range ms {
		if slices.ContainsFunc(out, func(g Measurement) bool { return g.Kind == m.Kind }) {
			continue
		}
		var perfs, energies []float64
		for _, r := range ms {
			if r.Kind == m.Kind {
				perfs = append(perfs, r.Perf)
				energies = append(energies, r.Energy)
			}
		}
		out = append(out, Measurement{Bench: "geomean", Kind: m.Kind, Perf: stats.GeoMean(perfs), Energy: stats.GeoMean(energies)})
	}
	return out
}

// writeTable prints title, then header and one line per row aligned in
// tab-separated columns, then the footer lines and a blank line.
func writeTable[T any](w io.Writer, title, header string, rows []T, line func(T) string, footer ...string) {
	fmt.Fprintln(w, title)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, header)
	for _, r := range rows {
		fmt.Fprintln(tw, line(r))
	}
	tw.Flush()
	for _, f := range footer {
		fmt.Fprintln(w, f)
	}
	fmt.Fprintln(w)
}

// WriteFig2 renders the Figure 2 style table (normalized performance and
// energy, with variance) to w.
func WriteFig2(w io.Writer, title string, ms []Measurement) {
	writeTable(w, title, "bench\tkind\tperf(norm)\t±\tenergy(norm)\t±\tinj rate\tnet lat", ms, func(m Measurement) string {
		return fmt.Sprintf("%s\t%s\t%.3f\t%.3f\t%.3f\t%.3f\t%.3f\t%.1f",
			m.Bench, m.Kind, m.Perf, m.PerfStd, m.Energy, m.EnergyStd, m.InjectionRate, m.NetLatency)
	})
}

// WriteFig3 renders the Figure 3 style energy breakdown (components
// normalized to the backpressured total per benchmark).
func WriteFig3(w io.Writer, title string, ms []Measurement) {
	writeTable(w, title, "bench\tkind\tbuffer\tlink\trest\ttotal", ms, func(m Measurement) string {
		return fmt.Sprintf("%s\t%s\t%.3f\t%.3f\t%.3f\t%.3f",
			m.Bench, m.Kind, m.BufferE, m.LinkE, m.RestE, m.BufferE+m.LinkE+m.RestE)
	})
}

// WriteDuty renders the AFC mode duty-cycle report (Section V-A text)
// from the AFC rows of ms.
func WriteDuty(w io.Writer, ms []Measurement) {
	afc := slices.DeleteFunc(slices.Clone(ms), func(m Measurement) bool { return m.Kind != network.AFC })
	writeTable(w, "AFC mode duty cycle (fraction of router-cycles in backpressured mode)",
		"bench\tbackpressured-mode\tgossip switches\tescape events", afc, func(m Measurement) string {
			return fmt.Sprintf("%s\t%.1f%%\t%.1f\t%.1f", m.Bench, 100*m.BufferedFraction, m.GossipSwitches, m.EscapeEvents)
		})
}

// Table3Row is a paper-vs-measured injection-rate calibration entry.
type Table3Row struct {
	Bench    string
	Paper    float64
	Measured float64
}

// Table3 measures the achieved injection rate of every workload preset on
// the backpressured baseline (the configuration the paper's Table III
// reports): a view of the closed-loop baseline rows.
func Table3(opt Options) ([]Table3Row, error) {
	ms, err := ratesView.run(opt)
	return table3Rows(ms), err
}

// table3Rows pairs each backpressured row's injection rate with the
// paper's.
func table3Rows(ms []Measurement) []Table3Row {
	var out []Table3Row
	for _, m := range ms {
		out = append(out, Table3Row{
			Bench:    m.Bench,
			Paper:    cmp.PaperInjectionRates[m.Bench],
			Measured: m.InjectionRate,
		})
	}
	return out
}

// WriteTable3 renders the calibration table.
func WriteTable3(w io.Writer, rows []Table3Row) {
	writeTable(w, "Table III: workload injection rates (flits/node/cycle), paper vs. measured",
		"bench\tpaper\tmeasured", rows, func(r Table3Row) string {
			return fmt.Sprintf("%s\t%.2f\t%.3f", r.Bench, r.Paper, r.Measured)
		})
}

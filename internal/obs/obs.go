// Package obs is the simulator's observability layer: run manifests
// (a JSON record of what a sweep ran and how long every cell took),
// live progress reporting for long sweeps, counter export for an
// expvar/pprof debug endpoint, and CPU/heap profiling helpers.
//
// Everything here is off by default and purely observational — the same
// contract as internal/check: an observed run produces bit-for-bit the
// same results as an unobserved one, it just also tells you what
// happened. The Observer plugs into the experiment engine through the
// runner.Options callbacks (OnBatch/OnCellStart/OnCell) and into each
// cell's network as a read-only end-of-cycle ticker.
package obs

import (
	"io"
	"os"
	"runtime"
	"sync"
	"time"

	"afcnet/internal/network"
	"afcnet/internal/runner"
)

// Config selects which observers New enables and supplies the run
// metadata recorded in the manifest.
type Config struct {
	// Command and Args identify the invocation in the manifest
	// (typically the command name and os.Args[1:]).
	Command string
	Args    []string
	// Workers is the configured pool parallelism; <= 0 records
	// GOMAXPROCS, matching runner.Options semantics.
	Workers int
	// Kinds and Seeds are optional run metadata for the manifest.
	Kinds []string
	Seeds []int64

	// Manifest enables the run-manifest recorder (WriteManifest).
	Manifest bool
	// Progress enables the live progress line on ProgressTo.
	Progress bool
	// ProgressTo is the progress destination; nil means os.Stderr.
	ProgressTo io.Writer
	// Metrics, if non-nil, receives counter samples from every network
	// passed to Sample (the expvar debug endpoint reads it).
	Metrics *Metrics
}

// Observer bundles the enabled observers behind the runner callbacks.
// A nil *Observer is valid and does nothing, so call sites can thread
// one unconditionally.
type Observer struct {
	mu       sync.Mutex
	start    time.Time
	batch    int
	manifest *Manifest
	progress *progress
	metrics  *Metrics

	// memAt holds each in-flight cell's MemStats snapshot, taken at
	// OnCellStart and diffed at OnCell (see CellRecord for the caveats).
	memAt map[int]memSnap

	// barrierNets are the sharded networks ObserveBarrier enabled timing
	// on. Their tallies are cumulative for the network's lifetime
	// (Network.Reset keeps them), so the summary is folded once, at
	// Finish/WriteManifest, by reading each network's current tally.
	barrierNets []*network.Network
}

// memSnap is the slice of runtime.MemStats a cell's manifest record
// diffs.
type memSnap struct {
	totalAlloc   uint64
	numGC        uint32
	pauseTotalNs uint64
}

func readMemSnap() memSnap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memSnap{totalAlloc: ms.TotalAlloc, numGC: ms.NumGC, pauseTotalNs: ms.PauseTotalNs}
}

// New returns an Observer with the observers selected by cfg enabled.
func New(cfg Config) *Observer {
	o := &Observer{start: time.Now(), metrics: cfg.Metrics}
	if cfg.Manifest {
		workers := cfg.Workers
		if workers <= 0 {
			workers = runtime.GOMAXPROCS(0)
		}
		o.manifest = &Manifest{
			Command:    cfg.Command,
			Args:       cfg.Args,
			GoVersion:  runtime.Version(),
			GOMAXPROCS: runtime.GOMAXPROCS(0),
			Workers:    workers,
			Kinds:      cfg.Kinds,
			Seeds:      cfg.Seeds,
			Start:      o.start,
		}
	}
	if cfg.Progress {
		w := cfg.ProgressTo
		if w == nil {
			w = os.Stderr
		}
		o.progress = newProgress(w)
	}
	return o
}

// RecordScenario attaches a scenario spec and its per-phase results to
// the manifest (no-op without one). The values are stored as-is and
// marshal when the manifest is written.
func (o *Observer) RecordScenario(spec, results any) {
	if o == nil || o.manifest == nil {
		return
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	o.manifest.Scenario = spec
	o.manifest.ScenarioResults = results
}

// Hook installs the observer's callbacks on a runner.Options. Nil-safe;
// existing callbacks are overwritten (the engine builds fresh Options
// per batch).
func (o *Observer) Hook(ro *runner.Options) {
	if o == nil {
		return
	}
	ro.OnBatch = o.onBatch
	ro.OnCellStart = o.onCellStart
	ro.OnCell = o.onCell
}

// Sample attaches a read-only counter sampler for net when metrics are
// enabled. Nil-safe. The sampler is an ordinary end-of-cycle ticker
// that only reads network stats, so results are unchanged.
func (o *Observer) Sample(net *network.Network) {
	if o == nil || o.metrics == nil {
		return
	}
	net.AddTicker(newSampler(net, o.metrics))
}

// ObserveBarrier enables barrier wall-time collection on a sharded
// network and registers it for the end-of-run summary (manifest
// "barrier" record and the expvar gauge). Nil-safe; a no-op on serial
// networks, when neither manifest nor metrics is enabled, and on a
// network already registered (sweep workers re-acquire the same
// network every cell). Timing costs a few clock reads per cycle and
// never changes results — same contract as the counter sampler.
func (o *Observer) ObserveBarrier(net *network.Network) {
	if o == nil || net == nil || net.ShardCount() <= 1 {
		return
	}
	if o.manifest == nil && o.metrics == nil {
		return
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	for _, n := range o.barrierNets {
		if n == net {
			return
		}
	}
	net.SetBarrierTiming(true)
	o.barrierNets = append(o.barrierNets, net)
}

// flushBarrier folds the registered networks' cumulative tallies into
// the manifest record and the metrics gauge. Idempotent — it recomputes
// the summary from the live tallies each call, and the tallies are
// atomic, so flushing mid-sweep while other workers tick is safe.
// The networks of one run may differ in shard count (Bands clamps the
// count to the mesh height), so shard slot i is averaged over the cycles
// of the networks that have a shard i. Caller holds o.mu.
func (o *Observer) flushBarrier() {
	if len(o.barrierNets) == 0 {
		return
	}
	inline := o.barrierNets[0].ShardDispatchInline()
	var cycles, phaseA, phaseB uint64
	// busy[i] and busyCycles[i] sum shard slot i's busy time and the
	// cycles of the networks that have that slot.
	var busy, busyCycles []uint64
	for _, n := range o.barrierNets {
		t := n.BarrierTally()
		cycles += t.Cycles
		phaseA += t.PhaseANs
		phaseB += t.PhaseBNs
		for len(busy) < len(t.ShardBusyNs) {
			busy = append(busy, 0)
			busyCycles = append(busyCycles, 0)
		}
		for i, ns := range t.ShardBusyNs {
			busy[i] += ns
			busyCycles[i] += t.Cycles
		}
	}
	if cycles == 0 {
		return
	}
	rec := &BarrierRecord{
		Shards:         len(busy),
		InlineDispatch: inline,
		Cycles:         cycles,
		PhaseAAvgNs:    float64(phaseA) / float64(cycles),
		PhaseBAvgNs:    float64(phaseB) / float64(cycles),
	}
	for i, ns := range busy {
		avg := 0.0
		if busyCycles[i] > 0 {
			avg = float64(ns) / float64(busyCycles[i])
		}
		rec.ShardBusyAvgNs = append(rec.ShardBusyAvgNs, avg)
	}
	if o.manifest != nil {
		o.manifest.Barrier = rec
	}
	if o.metrics != nil {
		o.metrics.SetBarrier(rec.Shards, rec.InlineDispatch, rec.Cycles,
			rec.PhaseAAvgNs, rec.PhaseBAvgNs, rec.ShardBusyAvgNs)
	}
}

// Metrics returns the metrics sink (nil when not enabled).
func (o *Observer) Metrics() *Metrics {
	if o == nil {
		return nil
	}
	return o.metrics
}

func (o *Observer) onBatch(cells, workers int) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.batch++
	if o.manifest != nil {
		o.manifest.CellsTotal += cells
	}
	if o.progress != nil {
		o.progress.addBatch(cells, workers)
	}
}

func (o *Observer) onCellStart(index int) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.manifest != nil {
		if o.memAt == nil {
			o.memAt = make(map[int]memSnap)
		}
		o.memAt[index] = readMemSnap()
	}
	if o.progress != nil {
		o.progress.start(index)
	}
}

func (o *Observer) onCell(index int, err error, elapsed time.Duration) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.manifest != nil {
		rec := CellRecord{Batch: o.batch, Index: index, Seconds: elapsed.Seconds()}
		if at, ok := o.memAt[index]; ok {
			now := readMemSnap()
			rec.TotalAllocBytes = now.totalAlloc - at.totalAlloc
			rec.NumGC = now.numGC - at.numGC
			rec.PauseTotalNs = now.pauseTotalNs - at.pauseTotalNs
			delete(o.memAt, index)
		}
		if err != nil {
			rec.Error = err.Error()
			o.manifest.CellErrors++
		}
		o.manifest.Cells = append(o.manifest.Cells, rec)
		o.manifest.CellsDone++
		o.manifest.BusySeconds += elapsed.Seconds()
	}
	if o.progress != nil {
		o.progress.finish(index, err, elapsed)
	}
	if o.metrics != nil {
		o.metrics.CellsDone.Add(1)
	}
	// Refresh the barrier summary on every cell completion so the expvar
	// gauge (and a manifest written after a crash) is live during a long
	// sweep, not only after Finish. Safe while other cells tick: the
	// network tallies are atomic snapshots.
	o.flushBarrier()
}

// Finish closes the progress line (if any) and finalizes the manifest's
// wall-clock fields. Call it once, after the last batch.
func (o *Observer) Finish() {
	if o == nil {
		return
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.progress != nil {
		o.progress.close()
	}
	o.flushBarrier()
	if o.manifest != nil {
		o.manifest.finalize(time.Since(o.start))
	}
}

// WriteManifest writes the run manifest as indented JSON. It finalizes
// wall-clock fields first, so calling Finish beforehand is optional.
// Returns nil without writing when the manifest was not enabled.
func (o *Observer) WriteManifest(w io.Writer) error {
	if o == nil || o.manifest == nil {
		return nil
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	o.flushBarrier()
	o.manifest.finalize(time.Since(o.start))
	return o.manifest.write(w)
}

// WriteManifestFile writes the manifest to path (no-op when the
// manifest was not enabled or path is empty).
func (o *Observer) WriteManifestFile(path string) error {
	if o == nil || o.manifest == nil || path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := o.WriteManifest(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

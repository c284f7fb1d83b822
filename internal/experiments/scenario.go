package experiments

import (
	"fmt"
	"io"

	"afcnet/internal/network"
	"afcnet/internal/scenario"
)

// ScenarioResult is one (kind, seed) run of a scenario spec: per-phase
// completion-time distributions plus whole-run totals. Results are
// bit-for-bit identical at any Options.Parallelism and any shard count,
// which TestScenarioEqualsSerial gates.
type ScenarioResult struct {
	Kind network.Kind
	Seed int64

	Phases []scenario.PhaseStats

	Created    uint64
	Delivered  uint64
	Dropped    uint64 // drop-variant drops over the run
	Throughput float64
}

// Scenario runs spec once per (kind, seed) cell. There is no separate
// warmup window: the spec's timeline is absolute (events fire at the
// cycles it names) and the phase structure itself separates transients
// from steady state.
func Scenario(kinds []network.Kind, spec *scenario.Spec, opt Options) ([]ScenarioResult, error) {
	ns := len(opt.Seeds)
	return mapCells(len(kinds)*ns, opt, func(w *workerState, i int) (ScenarioResult, error) {
		k := kinds[i/ns]
		seed := opt.Seeds[i%ns]
		e := w.acquire(network.Config{Kind: k, Seed: seed, MeterEnergy: false})
		net := e.net
		gen := e.generator(spec.TrafficConfig(net.Mesh()))
		// The engine must tick before the generator so an event at cycle
		// c changes conditions ahead of cycle c's injections.
		eng := scenario.NewEngine(net, gen, spec)
		net.AddTicker(eng)
		net.AddTicker(gen)
		net.Run(spec.Duration)
		return ScenarioResult{
			Kind:       k,
			Seed:       seed,
			Phases:     eng.Phases(),
			Created:    net.CreatedPackets(),
			Delivered:  net.DeliveredPackets(),
			Dropped:    net.TotalDropped(),
			Throughput: net.ThroughputFlits(),
		}, nil
	})
}

// WriteScenario renders the per-phase scenario report.
func WriteScenario(w io.Writer, name string, rs []ScenarioResult) {
	if name == "" {
		name = "scenario"
	}
	var lines []string
	for _, r := range rs {
		for _, p := range r.Phases {
			lines = append(lines, fmt.Sprintf("%s\t%d\t%s\t%d..%d\t%d\t%d/%d/%d\t%d/%d/%d",
				r.Kind, r.Seed, p.Label, p.Start, p.End, p.Delivered,
				p.NetP50, p.NetP99, p.NetP999, p.TotP50, p.TotP99, p.TotP999))
		}
		lines = append(lines, fmt.Sprintf("%s\t%d\ttotal\t\t%d of %d\t(dropped %d, %.3f flits/node/cycle)\t",
			r.Kind, r.Seed, r.Delivered, r.Created, r.Dropped, r.Throughput))
	}
	writeTable(w, fmt.Sprintf("Scenario %q: per-phase packet completion times (cycles)", name),
		"kind\tseed\tphase\tcycles\tdelivered\tnet p50/p99/p999\ttotal p50/p99/p999", lines,
		func(s string) string { return s })
}

package experiments

import (
	"bytes"
	"encoding/json"
	"math/bits"
	"reflect"
	"slices"
	"strings"
	"testing"

	"afcnet/internal/cmp"
	"afcnet/internal/config"
	"afcnet/internal/energy"
	"afcnet/internal/network"
	"afcnet/internal/obs"
	"afcnet/internal/topology"
)

// cannedResults is a Results with a canned one-seed output for every
// closed-loop cell of the registry and every harness result filled in,
// for rendering tests that simulate nothing.
func cannedResults() *Results {
	var cells []cell
	for _, a := range registry {
		cells = append(cells, a.cells...)
	}
	b := newClosedBatch(cells, Options{Seeds: []int64{1}})
	for i := range b.cells {
		x := float64(i%5) / 10
		b.outs = append(b.outs, []closedOut{{
			res:    cmp.RunResult{TransactionsPerCycle: 1 - x, InjectionRate: 0.1 + x},
			energy: energy.Breakdown{BufferDynamic: 0.3, Link: 0.2 + x, Xbar: 0.5},
			mode:   network.ModeStats{BlessCycles: 10, BufferedCycles: uint64(10 * x)},
		}})
	}
	r := &Results{closed: b}
	r.Sweep = []SweepPoint{
		{Kind: network.Backpressured, Offered: 0.1, Latency: 15},
		{Kind: network.Bless, Offered: 0.1, Latency: 16},
		{Kind: network.Bless, Offered: 0.3, Latency: 900, Saturated: true},
	}
	r.Quadrant = []QuadrantResult{{Kind: network.Backpressured, Energy: 5}, {Kind: network.AFC, Energy: 4}}
	r.Gossip = GossipResult{GossipSwitches: 3, Delivered: 7, Created: 7, Drained: true}
	r.Metric = []ContentionMetricRow{{Policy: "paper"}}
	return r
}

// TestRegistry: names are unique and fit a Selection, -fig selects by
// name in any case, "all" prints every block once, and what -json and
// -svg add are registry names.
func TestRegistry(t *testing.T) {
	if len(registry) > 64 {
		t.Fatalf("%d registry entries do not fit a Selection's 64 bits", len(registry))
	}
	seen := map[string]bool{}
	for _, a := range registry {
		if seen[a.name] || a.name == "all" {
			t.Errorf("duplicate or reserved artifact name %q", a.name)
		}
		seen[a.name] = true
		if (a.cells == nil) == (a.run == nil) {
			t.Errorf("%s: is a view of the closed-loop batch or makes a harness call, not both or neither", a.name)
		}
		if a.partOf != "" && !seen[a.partOf] {
			t.Errorf("%s: prints inside %q, which is not an earlier entry", a.name, a.partOf)
		}
	}
	s, err := Select("2A")
	if err != nil || s.print != 1 || s.compute != 1 {
		t.Errorf(`Select("2A") = %+v, %v; want entry 0`, s, err)
	}
	if _, err := Select("bogus"); err == nil {
		t.Error(`Select("bogus") succeeded`)
	}
	all, _ := Select("all")
	if want := len(registry) - 2; bits.OnesCount64(all.print) != want || all.compute != all.print {
		t.Errorf(`Select("all") = %+v; want the %d entries that are not part of another's block`, all, want)
	}
	if upper, err := Select("ALL"); err != nil || upper != all {
		t.Errorf(`Select("ALL") = %+v, %v; want %+v, as Select("all")`, upper, err, all)
	}
	with := Selection{}.With(JSONArtifacts...).With(SVGArtifacts...)
	if with.print != 0 || bits.OnesCount64(with.compute) != 8 {
		t.Errorf("-json and -svg select %+v; want 8 entries computed, none printed", with)
	}
}

// TestRegistryRendersCanned renders every entry from canned results:
// each prints its table, and the gossip entry fails a run that lost
// packets after printing it.
func TestRegistryRendersCanned(t *testing.T) {
	r := cannedResults()
	for _, a := range registry {
		var buf bytes.Buffer
		if err := a.text(&buf, r); err != nil {
			t.Errorf("%s: %v", a.name, err)
		}
		if lines := strings.Count(buf.String(), "\n"); lines < 3 {
			t.Errorf("%s rendered %d lines:\n%s", a.name, lines, buf.String())
		}
	}
	var buf bytes.Buffer
	if err := entry(t, "rates").text(&buf, r); err != nil || !strings.Contains(buf.String(), "water") || !strings.Contains(buf.String(), "apache") {
		t.Errorf("Table III view lost rows (err %v):\n%s", err, buf.String())
	}
	r.Gossip.Delivered--
	buf.Reset()
	if err := entry(t, "gossip").text(&buf, r); err == nil || !strings.Contains(buf.String(), "6 of 7") {
		t.Errorf("gossip entry with a lost packet: err %v after printing %q", err, buf.String())
	}
}

// TestRegistryCellsRunOnOptionsMachine: with Options.System set, every
// distinct closed-loop cell of the registry runs on that machine, the
// ablation variants included, so each variant at the paper's setting is
// a standard cell and the batch holds 41 cells, as on the default
// machine. The variants leave the options' thresholds map alone, and
// lazyvca's buffer-slot ratio reads the options' machine too. It
// simulates nothing.
func TestRegistryCellsRunOnOptionsMachine(t *testing.T) {
	var cells []cell
	for _, a := range registry {
		cells = append(cells, a.cells...)
	}
	sys := config.DefaultWithMesh(topology.NewMesh(4, 4))
	b := newClosedBatch(cells, Options{Seeds: []int64{1}, System: sys})
	if len(b.cells) != 41 {
		t.Errorf("%d distinct cells, want 41", len(b.cells))
	}
	for _, c := range b.cells {
		if m := b.config(c, 1).System.Mesh; m != sys.Mesh {
			t.Errorf("%s on %s runs on a %dx%d mesh, want 4x4", c.p.Name, c.cfg.Kind, m.Width, m.Height)
		}
	}
	if want := config.DefaultWithMesh(sys.Mesh).AFC.ThresholdsByPosition; !reflect.DeepEqual(sys.AFC.ThresholdsByPosition, want) {
		t.Errorf("options' thresholds became %v, want %v", sys.AFC.ThresholdsByPosition, want)
	}

	sys.AFC.VCsPerVN = [3]int{4, 4, 8}
	v := lazyVCAView()
	lb := newClosedBatch(v.cells, Options{Seeds: []int64{1}, System: sys})
	for range lb.cells {
		lb.outs = append(lb.outs, []closedOut{{}})
	}
	if got := v.rows(lb)[0].BufferSlotsRatio; got != 0.25 {
		t.Errorf("lazyvca slot ratio = %g on 16 AFC slots against 64, want 0.25", got)
	}
}

// entry returns the registry entry named name.
func entry(t *testing.T, name string) artifact {
	t.Helper()
	i := slices.IndexFunc(registry, func(a artifact) bool { return a.name == name })
	if i < 0 {
		t.Fatalf("no artifact %q", name)
	}
	return registry[i]
}

// TestEvaluateEachArtifact: each artifact evaluated alone renders what
// the whole evaluation renders for it, and the whole evaluation runs
// each distinct closed-loop cell exactly once per seed, in one batch.
// Two seeds, reduced lengths, checker on.
func TestEvaluateEachArtifact(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the whole evaluation 18 times at reduced lengths")
	}
	opt := checkedOpt(0)
	opt.Seeds = []int64{1, 2}
	ob := obs.New(obs.Config{Workers: opt.Parallelism, Manifest: true})
	opt.Obs = ob
	sel, _ := Select("all")
	var text bytes.Buffer
	all, err := sel.Run(opt, &text)
	if err != nil {
		t.Fatal(err)
	}
	ob.Finish()

	// Per seed: Fig. 2's 3 low-load benchmarks x 5 kinds and 3 high-load
	// x 4, then the ablations' cells that are not Fig. 2's: thresholds'
	// AFC at scales 0.5, 2 and 4 on water and apache (6), sizing's two
	// variants (2), pipeline's realistic baseline on water and apache
	// (2), and ejectwidth's widths 2 and 3 on backpressured and
	// backpressureless (4).
	const perSeed = 27 + 6 + 2 + 2 + 4
	var mbuf bytes.Buffer
	if err := ob.WriteManifest(&mbuf); err != nil {
		t.Fatal(err)
	}
	var m obs.Manifest
	if err := json.Unmarshal(mbuf.Bytes(), &m); err != nil {
		t.Fatal(err)
	}
	first := 0
	for _, c := range m.Cells {
		if c.Batch == 1 {
			first++
		}
	}
	if want := perSeed * len(opt.Seeds); first != want || len(all.closed.cells) != perSeed {
		t.Errorf("closed-loop batch ran %d cells for %d distinct cells; want %d, each of %d distinct cells once per seed",
			first, len(all.closed.cells), want, perSeed)
	}

	var blocks bytes.Buffer
	for _, a := range registry {
		if a.partOf == "" {
			if err := a.text(&blocks, all); err != nil {
				t.Fatal(err)
			}
		}
	}
	if blocks.String() != text.String() {
		t.Errorf("-fig all printed\n%s\nwant its entries' blocks\n%s", text.String(), blocks.String())
	}

	opt.Obs = nil
	for _, a := range registry {
		one, err := Select(a.name)
		if err != nil {
			t.Fatal(err)
		}
		var got, want bytes.Buffer
		if _, err := one.Run(opt, &got); err != nil {
			t.Fatalf("%s: %v", a.name, err)
		}
		if err := a.text(&want, all); err != nil {
			t.Fatal(err)
		}
		if got.String() != want.String() {
			t.Errorf("-fig %s alone printed\n%s\nthe whole evaluation renders it as\n%s", a.name, got.String(), want.String())
		}
	}

	// Table III is Fig. 2's backpressured rows' injection rate, bit for
	// bit.
	rates, err := Table3(opt)
	if err != nil {
		t.Fatal(err)
	}
	fig2 := append(lowEnergyView.rows(all.closed), highView.rows(all.closed)...)
	for _, r := range rates {
		i := slices.IndexFunc(fig2, func(m Measurement) bool { return m.Bench == r.Bench && m.Kind == network.Backpressured })
		if i < 0 || r.Measured != fig2[i].InjectionRate {
			t.Errorf("Table3 %s measured %v, Fig. 2's backpressured rows are %+v", r.Bench, r.Measured, fig2)
		}
	}
}

package experiments

import (
	"bytes"
	"encoding/json"
	"math/bits"
	"slices"
	"strings"
	"testing"

	"afcnet/internal/cmp"
	"afcnet/internal/network"
	"afcnet/internal/obs"
)

// cannedResults is a Results with a row for every closed-loop read of
// the registry and every harness result filled in, for rendering tests
// that simulate nothing.
func cannedResults() *Results {
	r := &Results{closed: closedRows{}}
	for _, read := range []closedRead{lowEnergyRead, highRead} {
		for _, p := range read.benches {
			for i, k := range read.kinds {
				x := float64(i) / 10
				r.closed[benchKind{p, k}] = Measurement{
					Bench: p.Name, Kind: k, Perf: 1 - x, Energy: 1 + x,
					BufferE: 0.3, LinkE: 0.2 + x, RestE: 0.5,
					InjectionRate: 0.1 + x, BufferedFraction: x,
				}
			}
		}
	}
	r.Sweep = []SweepPoint{
		{Kind: network.Backpressured, Offered: 0.1, Latency: 15},
		{Kind: network.Bless, Offered: 0.1, Latency: 16},
		{Kind: network.Bless, Offered: 0.3, Latency: 900, Saturated: true},
	}
	r.Quadrant = []QuadrantResult{{Kind: network.Backpressured, Energy: 5}, {Kind: network.AFC, Energy: 4}}
	r.Gossip = GossipResult{GossipSwitches: 3, Delivered: 7, Created: 7, Drained: true}
	r.LazyVCA = []LazyVCARow{{Bench: "apache", PerfRatio: 1}}
	r.Thresholds = []ThresholdRow{{Scale: 1}}
	r.Sizing = []BaselineConfigRow{{Label: "paper"}}
	r.Pipeline = []PipelineRow{{Bench: "water"}}
	r.Metric = []ContentionMetricRow{{Policy: "paper"}}
	r.EjectWidth = []EjectRow{{Width: 1}}
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
		if (a.closed == nil) == (a.run == nil) {
			t.Errorf("%s: reads the closed-loop batch or makes a harness call, not both or neither", a.name)
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
// each distinct closed-loop cell exactly once, in one batch. Two seeds,
// reduced lengths, checker on.
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

	// 3 low-load benchmarks x 5 kinds and 3 high-load x 4, per seed.
	const perSeed = 27
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
	if want := perSeed * len(opt.Seeds); first != want || len(all.closed) != perSeed {
		t.Errorf("closed-loop batch ran %d cells for %d rows; want %d cells, one per (bench, kind, seed), for %d rows",
			first, len(all.closed), want, perSeed)
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

	// Table III is the backpressured rows' injection rate, bit for bit.
	rates, err := Table3(opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rates {
		p, _ := cmp.ByName(r.Bench)
		if m := all.closed[benchKind{p, network.Backpressured}]; r.Measured != m.InjectionRate {
			t.Errorf("Table3 %s measured %v, backpressured row injects %v", r.Bench, r.Measured, m.InjectionRate)
		}
	}
}

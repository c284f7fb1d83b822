package experiments

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"afcnet/internal/cmp"
	"afcnet/internal/network"
)

// shapeOpt is even quicker than Quick(): these tests assert paper shapes,
// not precise values, so short windows suffice.
func shapeOpt() Options {
	o := Quick()
	o.WarmupTx = 500
	o.MeasureTx = 1500
	o.OpenLoopWarmup = 2000
	o.OpenLoopMeasure = 6000
	return o
}

func byKind(ms []Measurement, bench string) map[network.Kind]Measurement {
	out := map[network.Kind]Measurement{}
	for _, m := range ms {
		if m.Bench == bench {
			out[m.Kind] = m
		}
	}
	return out
}

// TestLowLoadShape pins Figure 2(a)/(b)'s qualitative claims on water:
// performance indifferent to flow control; backpressureless cheapest;
// ideal-bypass between backpressureless and backpressured; AFC close to
// backpressureless.
func TestLowLoadShape(t *testing.T) {
	if testing.Short() {
		t.Skip("closed-loop runs are slow")
	}
	low, _ := cmp.ByName("water")
	ms, err := ClosedLoop([]cmp.Params{low}, Fig2EnergyKinds, shapeOpt())
	if err != nil {
		t.Fatal(err)
	}
	m := byKind(ms, "water")

	for k, v := range m {
		if v.Perf < 0.9 || v.Perf > 1.1 {
			t.Errorf("%s: low-load perf %0.3f deviates from baseline", k, v.Perf)
		}
	}
	bless := m[network.Bless].Energy
	afc := m[network.AFC].Energy
	bypass := m[network.BackpressuredIdealBypass].Energy
	if !(bless < afc && afc < bypass && bypass < 1.0) {
		t.Errorf("low-load energy ordering broken: bless=%.3f afc=%.3f bypass=%.3f bp=1",
			bless, afc, afc)
	}
	if afc > bless*1.2 {
		t.Errorf("AFC %0.3f should be within ~10-20%% of backpressureless %0.3f", afc, bless)
	}
	if m[network.AFC].BufferedFraction > 0.1 {
		t.Errorf("AFC spent %.1f%% buffered at low load", 100*m[network.AFC].BufferedFraction)
	}
}

// TestHighLoadShape pins Figure 2(c)/(d) on apache: backpressureless
// degrades significantly; AFC tracks backpressured in both performance
// and energy; backpressureless costs the most energy.
func TestHighLoadShape(t *testing.T) {
	if testing.Short() {
		t.Skip("closed-loop runs are slow")
	}
	high, _ := cmp.ByName("apache")
	ms, err := ClosedLoop([]cmp.Params{high}, Fig2Kinds, shapeOpt())
	if err != nil {
		t.Fatal(err)
	}
	m := byKind(ms, "apache")

	if b := m[network.Bless]; b.Perf > 0.9 {
		t.Errorf("backpressureless perf %0.3f; expected significant degradation", b.Perf)
	}
	if a := m[network.AFC]; a.Perf < 0.93 {
		t.Errorf("AFC perf %0.3f; should track backpressured within a few %%", a.Perf)
	}
	if a := m[network.AFC]; a.Energy > 1.10 {
		t.Errorf("AFC energy %0.3f; paper reports within 2-3%% of backpressured", a.Energy)
	}
	if b := m[network.Bless]; b.Energy < 1.2 {
		t.Errorf("backpressureless energy %0.3f; expected substantial penalty", b.Energy)
	}
	if frac := m[network.AFC].BufferedFraction; frac < 0.7 {
		t.Errorf("AFC spent only %.1f%% buffered at high load", 100*frac)
	}
	if esc := m[network.AFC].EscapeEvents; esc != 0 {
		t.Errorf("escape events in closed loop: %g", esc)
	}
}

// TestSweepShape pins the saturation ordering: drop < bless <=
// backpressured ~= AFC.
func TestSweepShape(t *testing.T) {
	if testing.Short() {
		t.Skip("open-loop sweeps are slow")
	}
	opt := shapeOpt()
	rates := []float64{0.2, 0.35, 0.5, 0.65}
	pts := LatencySweep([]network.Kind{
		network.Backpressured, network.Bless, network.BlessDrop, network.AFC,
	}, rates, opt)
	sat := SaturationThroughput(pts)
	if sat[network.BlessDrop] >= sat[network.Bless] {
		t.Errorf("drop variant saturation %.2f should be below deflection %.2f",
			sat[network.BlessDrop], sat[network.Bless])
	}
	if sat[network.AFC] < sat[network.Bless] {
		t.Errorf("AFC saturation %.2f below backpressureless %.2f",
			sat[network.AFC], sat[network.Bless])
	}
	if sat[network.Backpressured] < sat[network.Bless] {
		t.Errorf("backpressured saturation %.2f below backpressureless %.2f",
			sat[network.Backpressured], sat[network.Bless])
	}
}

// TestQuadrantShape pins Section V-B: AFC uses the least energy under
// spatial load variation and runs roughly one quadrant backpressured.
func TestQuadrantShape(t *testing.T) {
	if testing.Short() {
		t.Skip("8x8 runs are slow")
	}
	rs := Quadrant([]network.Kind{network.Backpressured, network.Bless, network.AFC},
		0.9, 0.1, shapeOpt())
	var bp, bless, afc QuadrantResult
	for _, r := range rs {
		switch r.Kind {
		case network.Backpressured:
			bp = r
		case network.Bless:
			bless = r
		case network.AFC:
			afc = r
		}
	}
	if !(afc.Energy < bp.Energy && afc.Energy < bless.Energy) {
		t.Errorf("AFC not the best energy: afc=%.0f bp=%.0f bless=%.0f",
			afc.Energy, bp.Energy, bless.Energy)
	}
	if afc.BufferedFrac < 0.10 || afc.BufferedFrac > 0.45 {
		t.Errorf("AFC buffered fraction %.2f; expected ~0.25 (the hot quadrant)", afc.BufferedFrac)
	}
	if bless.ColdLatency < bp.ColdLatency {
		t.Errorf("expected misrouting pollution: bless cold latency %.1f < backpressured %.1f",
			bless.ColdLatency, bp.ColdLatency)
	}
}

// TestGossipHotspotShape pins the gossip demonstration: gossip switches
// occur, nothing is lost, the network drains.
func TestGossipHotspotShape(t *testing.T) {
	if testing.Short() {
		t.Skip("open-loop run is slow")
	}
	r := GossipHotspot(3, shapeOpt())
	if r.GossipSwitches == 0 {
		t.Error("hotspot produced no gossip-induced switches")
	}
	if !r.Drained || r.Delivered != r.Created {
		t.Errorf("hotspot lost traffic: %+v", r)
	}
}

// TestWriters exercises the table renderers (format smoke test).
func TestWriters(t *testing.T) {
	ms := []Measurement{{
		Bench: "x", Kind: network.AFC, Perf: 1, Energy: 0.8,
		BufferE: 0.1, LinkE: 0.2, RestE: 0.5, BufferedFraction: 0.5,
	}}
	var buf bytes.Buffer
	WriteFig2(&buf, "t", ms)
	WriteFig3(&buf, "t", ms)
	WriteDuty(&buf, ms)
	WriteTable3(&buf, []Table3Row{{Bench: "x", Paper: 0.1, Measured: 0.11}})
	WriteSweep(&buf, []SweepPoint{{Kind: network.AFC, Offered: 0.1, Throughput: 0.1, Latency: 15}})
	WriteQuadrant(&buf, []QuadrantResult{{Kind: network.AFC, Energy: 1}})
	WriteGossip(&buf, GossipResult{})
	WriteLazyVCA(&buf, []LazyVCARow{{Bench: "x"}})
	WriteThresholds(&buf, []ThresholdRow{{Scale: 1}})
	WriteEjectWidth(&buf, []EjectRow{{Width: 1}})
	out := buf.String()
	for _, want := range []string{"afc", "buffer", "gossip", "saturation"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered tables missing %q", want)
		}
	}
}

// TestGeoMeans checks the aggregation arithmetic.
func TestGeoMeans(t *testing.T) {
	ms := []Measurement{
		{Bench: "a", Kind: network.AFC, Perf: 0.5, Energy: 2},
		{Bench: "b", Kind: network.AFC, Perf: 2, Energy: 0.5},
	}
	g := GeoMeans(ms)
	if len(g) != 1 || g[0].Bench != "geomean" {
		t.Fatalf("geomeans = %+v", g)
	}
	if g[0].Perf != 1 || g[0].Energy != 1 {
		t.Errorf("geomean perf=%g energy=%g, want 1,1", g[0].Perf, g[0].Energy)
	}
}

// TestWriteSVGs renders the full SVG figure set of canned results into
// a temp dir (format smoke test).
func TestWriteSVGs(t *testing.T) {
	dir := t.TempDir()
	if err := cannedResults().WriteSVGs(dir); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"fig2a.svg", "fig2b.svg", "fig2c.svg", "fig2d.svg", "fig3a.svg", "fig3b.svg", "sweep.svg"} {
		b, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		s := string(b)
		if !strings.HasPrefix(s, "<svg") || !strings.HasSuffix(s, "</svg>") {
			t.Errorf("%s is not an SVG document", name)
		}
		if name != "sweep.svg" && !strings.Contains(s, "water") && !strings.Contains(s, "apache") {
			t.Errorf("%s names no benchmark", name)
		}
	}
}

// TestJSONRoundTrip: the exported results bundle is valid JSON with
// self-describing kind names, carries Fig. 2's rows in the figures' kind
// order and Table III as the backpressured rows, and survives a decode.
func TestJSONRoundTrip(t *testing.T) {
	r := cannedResults()
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"afc"`) {
		t.Error("kind not serialized by name")
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(buf.Bytes(), &keys); err != nil {
		t.Fatal(err)
	}
	if len(keys) != 6 {
		t.Errorf("JSON has %d keys, want lowLoad, highLoad, table3, sweep, quadrant and gossip", len(keys))
	}
	var back resultsJSON
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if len(back.LowLoad) != 15 || back.LowLoad[0].Kind != network.BackpressuredIdealBypass || len(back.HighLoad) != 12 {
		t.Errorf("Fig. 2 rows: %d low-load starting with %v, %d high-load; want 15 in Fig2EnergyKinds order and 12",
			len(back.LowLoad), back.LowLoad[0].Kind, len(back.HighLoad))
	}
	if len(back.Table3) != 6 || back.Table3[0].Measured != r.closed.of(on(cmp.LowLoad()[0], network.Backpressured))[0].res.InjectionRate {
		t.Errorf("table3 = %+v; want the six backpressured rows' injection rates", back.Table3)
	}
	if back.Sweep[1].Kind != network.Bless || !back.Gossip.Drained {
		t.Errorf("sweep or gossip did not round-trip: %+v %+v", back.Sweep, back.Gossip)
	}
}

// TestContentionMetricShape pins ablation A7's claim: the paper's metric
// localizes switches to the hot region better than the rejected
// cumulative-misroute metric.
func TestContentionMetricShape(t *testing.T) {
	if testing.Short() {
		t.Skip("8x8 runs are slow")
	}
	rows := AblationContentionMetric(shapeOpt())
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	paper, rejected := rows[0], rows[1]
	if paper.Switches == 0 || rejected.Switches == 0 {
		t.Fatalf("policies did not switch: %+v", rows)
	}
	if paper.NearFraction <= rejected.NearFraction {
		t.Errorf("paper metric near-fraction %.2f not above rejected %.2f — localization argument not visible",
			paper.NearFraction, rejected.NearFraction)
	}
}

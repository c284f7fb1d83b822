package experiments

import (
	"reflect"
	"testing"

	"afcnet/internal/config"
	"afcnet/internal/network"
	"afcnet/internal/scenario"
	"afcnet/internal/topology"
)

// detScenario is the determinism workload: every scheduled-change
// mechanism fires at least once (rate ramp, pattern move, bursting,
// dead link, dead router, throttling) on an 8x8 mesh so shard count 8
// is genuinely eight row bands.
func detScenario() *scenario.Spec {
	r := 0.22
	return &scenario.Spec{
		Name:     "det",
		Duration: 3000,
		Rate:     0.08,
		Events: []scenario.Event{
			{At: 500, Label: "ramp", Rate: &r},
			{At: 1000, Label: "burst", Pattern: "hotspot:27:0.5",
				Burst: &scenario.Burst{Period: 60, On: 20}},
			{At: 1500, Label: "fault",
				DeadLinks:   []scenario.LinkRef{{Node: 9, Dir: "E"}},
				DeadRouters: []int{36}},
			{At: 2200, Label: "throttle", Burst: &scenario.Burst{},
				Throttles: &[]scenario.Throttle{{Node: 18, Dir: "S", Period: 16, On: 8}}},
		},
	}
}

// TestScenarioEqualsSerial is the determinism gate on the scenario
// layer: the same spec, across experiment-level parallelism and every
// sharded-tick width, with the invariant checker attached, must hash to
// the digest recorded per (kind, seed) cell under the scenario/ keys of
// testdata/golden.json. It records the seed-2 cells and checks the
// seed-1 cells TestGoldenDigests records. The engine mutates run
// conditions from serial ticker context and the NI delivered hooks
// record into per-node state only, so nothing here may depend on worker
// or shard count; with two seeds per kind, the second seed of each
// worker rewinds its network with Reset.
func TestScenarioEqualsSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-configuration scenario runs are slow")
	}
	rec := loadGolden(t)
	got := goldenDigests{}
	kinds := []network.Kind{network.Backpressured, network.Bless, network.BlessDrop, network.AFC}
	base := Options{Seeds: []int64{1, 2}, Parallelism: 1}
	got.addScenario(t, "serial", kinds, true, base)
	variants := []struct {
		name        string
		parallelism int
		shards      int
	}{
		{"parallel8", 8, 0},
		{"shards2", 1, 2},
		{"shards8", 1, 8},
		{"parallel8-shards2", 8, 2},
	}
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			opt := base
			opt.Parallelism = v.parallelism
			opt.Shards = v.shards
			got.addScenario(t, v.name, kinds, true, opt)
		})
	}
	checkGolden(t, rec, got)
}

// TestScenarioFaultShards16x16 is the scenario x shards x faults gate at
// the large radix: a 16x16 mesh scenario that kills links and a router
// and duty-cycles a throttle mid-run must produce bit-for-bit identical
// per-phase results through the sharded tick at 8 shards (two rows per
// band) as through the serial kernel, invariant checker attached. Fault
// mutation is what the steady-state equality gates never exercise: a
// dead link or throttle flips run conditions from serial ticker
// context, and every router's quiescence skip on a worker goroutine
// must see the new port masks at its next cycle — a mutation the
// barrier failed to order before the parallel pass diverges here.
func TestScenarioFaultShards16x16(t *testing.T) {
	spec := &scenario.Spec{
		Name:     "faults-16x16",
		Duration: 2500,
		Rate:     0.05,
		Events: []scenario.Event{
			{At: 800, Label: "dead",
				DeadLinks:   []scenario.LinkRef{{Node: 55, Dir: "E"}, {Node: 150, Dir: "N"}},
				DeadRouters: []int{136}},
			{At: 1600, Label: "throttle",
				Throttles: &[]scenario.Throttle{{Node: 90, Dir: "S", Period: 16, On: 8}}},
		},
	}
	kinds := []network.Kind{network.Bless, network.AFC}
	base := Options{
		Seeds:       []int64{1},
		Parallelism: 1,
		Check:       true,
		System:      config.DefaultWithMesh(topology.NewMesh(16, 16)),
	}
	want, err := Scenario(kinds, spec, base)
	if err != nil {
		t.Fatal(err)
	}
	sharded := base
	sharded.Shards = 8
	got, err := Scenario(kinds, spec, sharded)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("sharded 16x16 fault scenario diverges from serial:\n got %+v\nwant %+v", got, want)
	}
	for _, r := range want {
		if len(r.Phases) != 3 {
			t.Fatalf("%s: got %d phases, want 3", r.Kind, len(r.Phases))
		}
		for i, p := range r.Phases {
			if p.Delivered == 0 {
				t.Errorf("%s phase %d (%s): no deliveries", r.Kind, i, p.Label)
			}
		}
	}
}

// TestScenarioFaultCompletion kills a center link mid-run on the default
// 3x3 mesh and checks graceful degradation per router kind: deflective
// kinds reroute around the dead link and keep delivering; buffered kinds
// keep delivering on unaffected routes (flits already XY-committed to
// the dead link strand, which the checker tolerates under active
// faults). The checker stays attached throughout — a conservation or
// ledger violation fails the run.
func TestScenarioFaultCompletion(t *testing.T) {
	spec := &scenario.Spec{
		Name:     "dead-link",
		Duration: 4000,
		Rate:     0.05,
		Events: []scenario.Event{
			{At: 2000, Label: "after-fault",
				DeadLinks: []scenario.LinkRef{{Node: 4, Dir: "E"}}},
		},
	}
	kinds := []network.Kind{
		network.Backpressured, network.Bless, network.BlessDrop, network.AFC, network.AFCAlwaysBuffered,
	}
	rs, err := Scenario(kinds, spec, Options{Seeds: []int64{3}, Parallelism: 1, Check: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rs {
		if len(r.Phases) != 2 {
			t.Fatalf("%s: got %d phases, want 2", r.Kind, len(r.Phases))
		}
		pre, post := r.Phases[0], r.Phases[1]
		if pre.Delivered == 0 || post.Delivered == 0 {
			t.Errorf("%s: deliveries pre=%d post=%d, want both positive", r.Kind, pre.Delivered, post.Delivered)
			continue
		}
		// Graceful degradation: the surviving links still carry most of
		// the offered low-load traffic after the fault.
		if post.Delivered*2 < pre.Delivered {
			t.Errorf("%s: post-fault deliveries collapsed: pre=%d post=%d", r.Kind, pre.Delivered, post.Delivered)
		}
		if post.NetP50 == 0 || post.NetP999 < post.NetP50 {
			t.Errorf("%s: post-fault percentiles malformed: %d/%d/%d", r.Kind, post.NetP50, post.NetP99, post.NetP999)
		}
	}
}

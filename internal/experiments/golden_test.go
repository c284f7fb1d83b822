package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"testing"

	"afcnet/internal/cmp"
	"afcnet/internal/config"
	"afcnet/internal/network"
	"afcnet/internal/runner"
	"afcnet/internal/topology"
)

var updateGolden = flag.Bool("update", false, "regenerate testdata/golden.json from the current code")

const goldenPath = "testdata/golden.json"

// mesh8Prefix marks the digests of the 8x8 sharded slice.
const mesh8Prefix = "8x8/"

// goldenOwner names the test that records key under -update. Several
// tests may run the same cell (TestScenarioEqualsSerial runs the seed-1
// scenario cells TestGoldenDigests records); each records only the keys
// it owns and checks the rest against the file.
func goldenOwner(key string) string {
	switch {
	case strings.HasPrefix(key, mesh8Prefix):
		return "TestShardedEqualsSerial"
	case strings.HasPrefix(key, fig2aQuickPrefix):
		return "TestShardCountInvarianceFig2a"
	case strings.HasPrefix(key, "scenario/") && strings.HasSuffix(key, "/seed2"):
		return "TestScenarioEqualsSerial"
	case strings.HasPrefix(key, evalPrefix):
		return "TestEvaluationDigests"
	}
	return "TestGoldenDigests"
}

// goldenFile is the committed digest matrix. Each digest is the SHA-256
// of one result's JSON encoding; encoding/json writes floats in their
// shortest round-trip form, so equal digests mean bit-equal results.
type goldenFile struct {
	// Arch is the GOARCH the digests were recorded on. Float sums may
	// legally differ on another architecture (the compiler may fuse
	// multiply-adds), so the test skips there instead of failing.
	Arch    string            `json:"arch"`
	Digests map[string]string `json:"digests"`
}

// digestOf hashes v's JSON encoding.
func digestOf(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("marshal %T: %v", v, err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// goldenDigests maps each digest key to the digest of every path that
// ran it.
type goldenDigests map[string][]pathDigest

type pathDigest struct{ path, digest string }

func (g goldenDigests) add(t *testing.T, key, path string, v any) {
	t.Helper()
	g[key] = append(g[key], pathDigest{path, digestOf(t, v)})
}

// shardPath names the path of a run at the given shard count.
func shardPath(shards int) string {
	if shards > 1 {
		return fmt.Sprintf("shards%d", shards)
	}
	return "serial"
}

// addScenario runs detScenario for kinds x opt.Seeds on the 8x8 mesh,
// checker attached, and adds each result under path.
func (g goldenDigests) addScenario(t *testing.T, path string, kinds []network.Kind, opt Options) {
	t.Helper()
	opt.Check = true
	opt.System = config.DefaultWithMesh(topology.NewMesh(8, 8))
	rs, err := Scenario(kinds, detScenario(), opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rs {
		g.add(t, fmt.Sprintf("scenario/%s/seed%d", r.Kind, r.Seed), path, r)
	}
}

// The closed-loop Fig. 2a slices: the short one (TestGoldenDigests) and
// the one at Quick() lengths (TestShardCountInvarianceFig2a).
const (
	fig2aShortPrefix = "fig2a/short/"
	fig2aQuickPrefix = "fig2a/quick/"
)

// addFig2a runs the Fig. 2a measurement of the first low-load benchmark
// for kinds and adds each (bench, kind) row under prefix and path.
func (g goldenDigests) addFig2a(t *testing.T, prefix, path string, kinds []network.Kind, opt Options) {
	t.Helper()
	ms, err := ClosedLoop(cmp.LowLoad()[:1], kinds, opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range ms {
		g.add(t, prefix+m.Bench+"/"+m.Kind.String(), path, m)
	}
}

// goldenCell is one open-loop (kind, seed, rate) cell of the digest
// matrix.
type goldenCell struct {
	kind network.Kind
	seed int64
	rate float64
}

// goldenCells lists every kind x seeds {1,2,3,5} x rates
// {0.05,0.30,0.55}.
func goldenCells() []goldenCell {
	var cells []goldenCell
	for k := network.Kind(0); k < network.NumKinds; k++ {
		for _, seed := range []int64{1, 2, 3, 5} {
			for _, rate := range []float64{0.05, 0.30, 0.55} {
				cells = append(cells, goldenCell{k, seed, rate})
			}
		}
	}
	return cells
}

func (c goldenCell) name() string {
	return fmt.Sprintf("open/%s/seed%d/rate%.2f", c.kind, c.seed, c.rate)
}

// goldenBase is the run length and checker of every open-loop cell.
func goldenBase() Options {
	return Options{OpenLoopWarmup: 500, OpenLoopMeasure: 1500, Check: true}
}

// loadGolden reads the recorded digests. A check skips t when they were
// recorded on another GOARCH; -update starts from them, or from nothing
// when the file is missing, unreadable or from another GOARCH.
func loadGolden(t *testing.T) goldenFile {
	t.Helper()
	var rec goldenFile
	b, err := os.ReadFile(goldenPath)
	if err == nil {
		if err = json.Unmarshal(b, &rec); err != nil {
			err = fmt.Errorf("%s: %v", goldenPath, err)
		}
	}
	if *updateGolden {
		if err != nil || rec.Arch != runtime.GOARCH || rec.Digests == nil {
			rec = goldenFile{Arch: runtime.GOARCH, Digests: map[string]string{}}
		}
		return rec
	}
	if err != nil {
		t.Fatal(err)
	}
	if rec.Arch != runtime.GOARCH {
		t.Skipf("digests were recorded on %s, this is %s: fused multiply-adds may change float sums",
			rec.Arch, runtime.GOARCH)
	}
	return rec
}

// checkGolden checks got against rec: every path of every key must hash
// to its recorded digest, and every recorded key t owns (goldenOwner)
// must have run. Under -update it records the keys t owns instead,
// refusing when two paths of one key disagree, still checks the keys it
// does not own, and rewrites the file with every other key unchanged,
// so each test regenerates only its own part of it.
func checkGolden(t *testing.T, rec goldenFile, got goldenDigests) {
	t.Helper()
	owns := func(key string) bool { return goldenOwner(key) == t.Name() }
	keys := make([]string, 0, len(got))
	for k := range got {
		keys = append(keys, k)
	}
	sort.Strings(keys)

	for _, k := range keys {
		if *updateGolden && owns(k) {
			for _, pd := range got[k][1:] {
				if pd.digest != got[k][0].digest {
					t.Fatalf("%s: %s and %s disagree, refusing to record", k, got[k][0].path, pd.path)
				}
			}
			continue
		}
		w, ok := rec.Digests[k]
		if !ok {
			t.Errorf("%s: no recorded digest (regenerate with -update)", k)
			continue
		}
		for _, pd := range got[k] {
			if pd.digest != w {
				t.Errorf("%s: %s path digest %s, want %s", k, pd.path, pd.digest, w)
			}
		}
	}
	if !*updateGolden {
		for k := range rec.Digests {
			if _, ok := got[k]; owns(k) && !ok {
				t.Errorf("%s: recorded digest has no cell", k)
			}
		}
		return
	}

	if t.Failed() {
		t.Fatal("refusing to record: keys this test does not own disagree with the file")
	}
	for k := range rec.Digests {
		if owns(k) {
			delete(rec.Digests, k)
		}
	}
	n := 0
	for _, k := range keys {
		if owns(k) {
			rec.Digests[k] = got[k][0].digest
			n++
		}
	}
	b, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(goldenPath, append(b, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %d digests to %s", n, goldenPath)
}

// abandonCycles is how long the dirty reuse path runs its abandoned
// rate-0.55 cell before the next cell's Reset: long enough that every
// kind holds flits (the test checks) and most AFC routers have switched
// to backpressured mode with flits in their buffers.
const abandonCycles = 1000

// TestGoldenDigests pins every kind's end state and measurements to
// digests committed in-tree. Each open-loop cell (every kind x seeds
// {1,2,3,5} x rates {0.05,0.30,0.55}, checker attached) must hash to its
// recorded digest along four paths: a fresh serial build per cell
// (activeSetCell); the worker pool that rewinds each worker's network
// with Reset between cells (pooledCell), with one worker and with eight;
// and the 8-way pool again with each cell preceded by an abandoned one —
// rate 0.55, stopped after abandonCycles without draining — so Reset
// must rewind routers that still hold flits. The detScenario run (dead
// links, a dead router and a throttle) of every kind must match its
// digest serially and at 3 shards, and so must its Bless and AFC seed-5
// runs serially. The closed-loop Fig. 2a slice (the first low-load
// benchmark, backpressured and AFC, seeds 1 and 2, so the second seed
// rewinds each network and CMP substrate) must match its digests too.
// The open-loop, seed-5 scenario and closed-loop digests were recorded
// when the dense reference kernel and the heap-allocating no-pool path
// still existed, and both hashed to them. TestShardedEqualsSerial,
// TestScenarioEqualsSerial and TestShardCountInvarianceFig2a check the
// other slices of the same file (goldenOwner).
//
// The equality gates elsewhere compare two paths compiled into one
// binary, so a bug the paths share passes them all. This test compares
// against results recorded from an earlier binary: any change in
// behaviour shows up here, and an intended one as a reviewed diff of
// testdata/golden.json (regenerate with go test -run
// 'TestGoldenDigests|TestShardedEqualsSerial|TestScenarioEqualsSerial|TestShardCountInvarianceFig2a'
// -update).
func TestGoldenDigests(t *testing.T) {
	rec := loadGolden(t)
	got := goldenDigests{}
	cells := goldenCells()
	base := goldenBase()

	serial := base
	serial.Parallelism = 1
	fresh, err := runner.Map(len(cells), serial.pool(), func(i int) (activeSetSnap, error) {
		c := cells[i]
		return activeSetCell(c.kind, c.seed, c.rate, serial), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range cells {
		got.add(t, c.name(), "serial", fresh[i])
	}
	pooled := func(path string, parallelism int, dirty bool) {
		opt := base
		opt.Parallelism = parallelism
		outs, err := mapCells(len(cells), opt, func(w *workerState, i int) (activeSetSnap, error) {
			c := cells[i]
			if dirty {
				net, _ := pooledGen(w, c.kind, c.seed+1000, 0.55)
				net.Run(abandonCycles)
				if net.Drained() {
					return activeSetSnap{}, fmt.Errorf("%s: abandoned cell holds no flits", c.name())
				}
			}
			return pooledCell(w, c.kind, c.seed, c.rate), nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for i, c := range cells {
			got.add(t, c.name(), path, outs[i])
		}
	}
	pooled("reuse1", 1, false)
	pooled("reuse8", 8, false)
	pooled("dirty8", 8, true)

	var kinds []network.Kind
	for k := network.Kind(0); k < network.NumKinds; k++ {
		kinds = append(kinds, k)
	}
	for _, shards := range []int{0, 3} {
		got.addScenario(t, shardPath(shards), kinds, Options{Seeds: []int64{1}, Parallelism: 1, Shards: shards})
	}
	got.addScenario(t, "serial", []network.Kind{network.Bless, network.AFC},
		Options{Seeds: []int64{5}, Parallelism: 1})

	got.addFig2a(t, fig2aShortPrefix, "pooled", []network.Kind{network.Backpressured, network.AFC}, Options{
		Seeds:       []int64{1, 2},
		WarmupTx:    100,
		MeasureTx:   300,
		CycleLimit:  2_000_000,
		Parallelism: 1,
		Check:       true,
	})

	checkGolden(t, rec, got)
}

// evalPrefix marks the digests of the evaluation slice: one per public
// harness result.
const evalPrefix = "eval/"

// TestEvaluationDigests pins the result of every public harness call of
// the paper's evaluation, with the parameters the registry passes, at
// seeds 1 and 2 and short lengths: the Fig. 2 low- and high-load
// closed-loop reads, Table III, the open-loop sweep, the 8x8
// consolidation, the gossip hotspot at each seed, and the six ablations.
// Two seeds exercise each harness's aggregation across seeds.
func TestEvaluationDigests(t *testing.T) {
	rec := loadGolden(t)
	got := goldenDigests{}
	opt := Options{
		Seeds:           []int64{1, 2},
		WarmupTx:        100,
		MeasureTx:       300,
		CycleLimit:      2_000_000,
		OpenLoopWarmup:  300,
		OpenLoopMeasure: 800,
	}
	add := func(name string, v any, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got.add(t, evalPrefix+name, "pooled", v)
	}
	low, err := ClosedLoop(cmp.LowLoad(), Fig2EnergyKinds, opt)
	add("2a", low, err)
	high, err := ClosedLoop(cmp.HighLoad(), Fig2Kinds, opt)
	add("2c", high, err)
	rates, err := Table3(opt)
	add("table3", rates, err)
	add("sweep", LatencySweep([]network.Kind{network.Backpressured, network.Bless, network.BlessDrop, network.AFC},
		[]float64{0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4, 0.45, 0.5, 0.55, 0.6}, opt), nil)
	add("quadrant", Quadrant([]network.Kind{network.Backpressured, network.Bless, network.AFC}, 0.9, 0.1, opt), nil)
	for _, seed := range opt.Seeds {
		add(fmt.Sprintf("gossip/seed%d", seed), GossipHotspot(seed, opt), nil)
	}
	lazy, err := AblationLazyVCA(opt)
	add("lazyvca", lazy, err)
	th, err := AblationThresholds([]float64{0.5, 1.0, 2.0, 4.0}, opt)
	add("thresholds", th, err)
	sizing, err := AblationBaselineSizing(opt)
	add("sizing", sizing, err)
	pipe, err := AblationPipeline(opt)
	add("pipeline", pipe, err)
	add("metric", AblationContentionMetric(opt), nil)
	eject, err := AblationEjectWidth([]int{1, 2, 3}, opt)
	add("ejectwidth", eject, err)
	checkGolden(t, rec, got)
}

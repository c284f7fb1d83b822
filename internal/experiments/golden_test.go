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
	"testing"

	"afcnet/internal/config"
	"afcnet/internal/network"
	"afcnet/internal/runner"
	"afcnet/internal/topology"
)

var updateGolden = flag.Bool("update", false, "regenerate testdata/golden.json from the current code")

const goldenPath = "testdata/golden.json"

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

// abandonCycles is how long the dirty reuse path runs its abandoned
// rate-0.55 cell before the next cell's Reset: long enough that every
// kind holds flits (the test checks) and most AFC routers have switched
// to backpressured mode with flits in their buffers.
const abandonCycles = 1000

// TestGoldenDigests pins every kind's end state and measurements to
// digests committed in-tree. Each open-loop cell (every kind x seeds
// {1,2,3,5} x rates {0.05,0.30,0.55}, checker attached) must hash to its
// recorded digest along three paths: a fresh serial build per cell
// (activeSetCell), the 8-way worker pool that rewinds each worker's
// network with Reset between cells (pooledCell), and that pool again
// with each cell preceded by an abandoned one — rate 0.55, stopped after
// abandonCycles without draining — so Reset must rewind routers that
// still hold flits. The detScenario run (dead links, a dead router and a
// throttle) of every kind must match its digest serially and at 3
// shards.
//
// The equality gates elsewhere compare two paths compiled into one
// binary, so a bug the paths share passes them all. This test compares
// against results recorded from an earlier binary: any change in
// behaviour shows up here, and an intended one as a reviewed diff of
// testdata/golden.json (regenerate with go test -run TestGoldenDigests
// -update).
func TestGoldenDigests(t *testing.T) {
	var want goldenFile
	if !*updateGolden {
		b, err := os.ReadFile(goldenPath)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(b, &want); err != nil {
			t.Fatalf("%s: %v", goldenPath, err)
		}
		if want.Arch != runtime.GOARCH {
			t.Skipf("digests were recorded on %s, this is %s: fused multiply-adds may change float sums",
				want.Arch, runtime.GOARCH)
		}
	}

	// got maps each digest key to the digest of every path that ran it.
	type pathDigest struct{ path, digest string }
	got := map[string][]pathDigest{}
	add := func(key, path string, v any) {
		got[key] = append(got[key], pathDigest{path, digestOf(t, v)})
	}

	type cellKey struct {
		kind network.Kind
		seed int64
		rate float64
	}
	var cells []cellKey
	for k := network.Kind(0); k < network.NumKinds; k++ {
		for _, seed := range []int64{1, 2, 3, 5} {
			for _, rate := range []float64{0.05, 0.30, 0.55} {
				cells = append(cells, cellKey{k, seed, rate})
			}
		}
	}
	cellName := func(c cellKey) string {
		return fmt.Sprintf("open/%s/seed%d/rate%.2f", c.kind, c.seed, c.rate)
	}
	base := Options{OpenLoopWarmup: 500, OpenLoopMeasure: 1500, Check: true}

	serial := base
	serial.Parallelism = 1
	fresh, err := runner.Map(len(cells), serial.pool(), func(i int) (activeSetSnap, error) {
		c := cells[i]
		return activeSetCell(c.kind, c.seed, c.rate, serial), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	pooled8 := base
	pooled8.Parallelism = 8
	ws := pooled8.workerStates(pooled8.pool().Workers(len(cells)))
	reused, err := runner.MapWorkers(len(cells), pooled8.pool(), func(worker, i int) (activeSetSnap, error) {
		c := cells[i]
		return pooledCell(ws[worker], c.kind, c.seed, c.rate), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	wsDirty := pooled8.workerStates(pooled8.pool().Workers(len(cells)))
	dirty, err := runner.MapWorkers(len(cells), pooled8.pool(), func(worker, i int) (activeSetSnap, error) {
		c := cells[i]
		net, _ := pooledGen(wsDirty[worker], c.kind, c.seed+1000, 0.55)
		net.Run(abandonCycles)
		if net.Drained() {
			return activeSetSnap{}, fmt.Errorf("%s: abandoned cell holds no flits", cellName(c))
		}
		return pooledCell(wsDirty[worker], c.kind, c.seed, c.rate), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range cells {
		add(cellName(c), "serial", fresh[i])
		add(cellName(c), "reuse8", reused[i])
		add(cellName(c), "dirty8", dirty[i])
	}

	var kinds []network.Kind
	for k := network.Kind(0); k < network.NumKinds; k++ {
		kinds = append(kinds, k)
	}
	for _, shards := range []int{0, 3} {
		opt := Options{
			Seeds:       []int64{1},
			Parallelism: 1,
			Check:       true,
			Shards:      shards,
			System:      config.DefaultWithMesh(topology.NewMesh(8, 8)),
		}
		rs, err := Scenario(kinds, detScenario(), opt)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range rs {
			key := fmt.Sprintf("scenario/%s/seed%d", r.Kind, r.Seed)
			add(key, fmt.Sprintf("shards%d", shards), r)
		}
	}

	keys := make([]string, 0, len(got))
	for k := range got {
		keys = append(keys, k)
	}
	sort.Strings(keys)

	if *updateGolden {
		out := goldenFile{Arch: runtime.GOARCH, Digests: map[string]string{}}
		for _, k := range keys {
			d := got[k][0].digest
			for _, pd := range got[k][1:] {
				if pd.digest != d {
					t.Fatalf("%s: %s and %s disagree, refusing to record", k, got[k][0].path, pd.path)
				}
			}
			out.Digests[k] = d
		}
		b, err := json.MarshalIndent(out, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d digests to %s", len(out.Digests), goldenPath)
		return
	}

	for _, k := range keys {
		w, ok := want.Digests[k]
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
	for k := range want.Digests {
		if _, ok := got[k]; !ok {
			t.Errorf("%s: recorded digest has no cell", k)
		}
	}
}

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

	"afcnet/internal/config"
	"afcnet/internal/network"
	"afcnet/internal/runner"
	"afcnet/internal/topology"
)

var updateGolden = flag.Bool("update", false, "regenerate testdata/golden.json from the current code")

const goldenPath = "testdata/golden.json"

// mesh8Prefix marks the digests of the 8x8 sharded slice, which
// TestShardedEqualsSerial checks and TestGoldenDigests leaves alone.
const mesh8Prefix = "8x8/"

// inMesh8Slice reports whether key belongs to the 8x8 sharded slice.
func inMesh8Slice(key string) bool { return strings.HasPrefix(key, mesh8Prefix) }

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

// checkGolden checks got against rec over the keys owns selects: every
// path of every key must hash to its recorded digest, and every recorded
// key must have run. Under -update it records got instead, refusing when
// two paths of one key disagree, and rewrites the file with the keys
// owns does not select unchanged, so each test regenerates only its own
// part of it.
func checkGolden(t *testing.T, rec goldenFile, got goldenDigests, owns func(key string) bool) {
	t.Helper()
	keys := make([]string, 0, len(got))
	for k := range got {
		keys = append(keys, k)
	}
	sort.Strings(keys)

	if *updateGolden {
		for k := range rec.Digests {
			if owns(k) {
				delete(rec.Digests, k)
			}
		}
		for _, k := range keys {
			d := got[k][0].digest
			for _, pd := range got[k][1:] {
				if pd.digest != d {
					t.Fatalf("%s: %s and %s disagree, refusing to record", k, got[k][0].path, pd.path)
				}
			}
			rec.Digests[k] = d
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
		t.Logf("wrote %d digests to %s", len(keys), goldenPath)
		return
	}

	for _, k := range keys {
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
	for k := range rec.Digests {
		if _, ok := got[k]; owns(k) && !ok {
			t.Errorf("%s: recorded digest has no cell", k)
		}
	}
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
// shards. TestShardedEqualsSerial checks the 8x8 sharded slice of the
// same file.
//
// The equality gates elsewhere compare two paths compiled into one
// binary, so a bug the paths share passes them all. This test compares
// against results recorded from an earlier binary: any change in
// behaviour shows up here, and an intended one as a reviewed diff of
// testdata/golden.json (regenerate with go test -run
// 'TestGoldenDigests|TestShardedEqualsSerial' -update).
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
			return activeSetSnap{}, fmt.Errorf("%s: abandoned cell holds no flits", c.name())
		}
		return pooledCell(wsDirty[worker], c.kind, c.seed, c.rate), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range cells {
		got.add(t, c.name(), "serial", fresh[i])
		got.add(t, c.name(), "reuse8", reused[i])
		got.add(t, c.name(), "dirty8", dirty[i])
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
			got.add(t, key, fmt.Sprintf("shards%d", shards), r)
		}
	}

	checkGolden(t, rec, got, func(key string) bool { return !inMesh8Slice(key) })
}

package obs

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"afcnet/internal/config"
	"afcnet/internal/network"
	"afcnet/internal/runner"
	"afcnet/internal/topology"
	"afcnet/internal/traffic"
)

// driveTwoBatches pushes two runner batches through ob the way the
// experiment engine does: batch one is four clean cells on two workers,
// batch two is three serial cells whose last cell fails.
func driveTwoBatches(t *testing.T, ob *Observer) {
	t.Helper()
	ro := runner.Options{Parallelism: 2}
	ob.Hook(&ro)
	if err := runner.Run(4, ro, func(i int) error { return nil }); err != nil {
		t.Fatalf("batch 1: %v", err)
	}
	ro = runner.Options{Parallelism: 1}
	ob.Hook(&ro)
	boom := errors.New("boom")
	if err := runner.Run(3, ro, func(i int) error {
		if i == 2 {
			return boom
		}
		return nil
	}); !errors.Is(err, boom) {
		t.Fatalf("batch 2 error = %v, want %v", err, boom)
	}
}

func TestManifestRecordsEveryCell(t *testing.T) {
	ob := New(Config{
		Command:  "test",
		Args:     []string{"-x", "1"},
		Workers:  2,
		Kinds:    []string{"afc", "backpressureless"},
		Seeds:    []int64{1, 2},
		Manifest: true,
	})
	driveTwoBatches(t, ob)
	ob.Finish()

	var buf bytes.Buffer
	if err := ob.WriteManifest(&buf); err != nil {
		t.Fatalf("WriteManifest: %v", err)
	}
	var m Manifest
	if err := json.Unmarshal(buf.Bytes(), &m); err != nil {
		t.Fatalf("manifest is not valid JSON: %v", err)
	}
	if m.Command != "test" || len(m.Args) != 2 {
		t.Errorf("command/args = %q/%v, want test/[-x 1]", m.Command, m.Args)
	}
	if m.GoVersion != runtime.Version() {
		t.Errorf("goVersion = %q, want %q", m.GoVersion, runtime.Version())
	}
	if m.Workers != 2 {
		t.Errorf("workers = %d, want 2", m.Workers)
	}
	if m.CellsTotal != 7 || m.CellsDone != 7 || m.CellErrors != 1 {
		t.Errorf("cellsTotal/done/errors = %d/%d/%d, want 7/7/1",
			m.CellsTotal, m.CellsDone, m.CellErrors)
	}
	if len(m.Cells) != 7 {
		t.Fatalf("len(cells) = %d, want 7 (one record per executed cell)", len(m.Cells))
	}
	perBatch := map[int]int{}
	for _, c := range m.Cells {
		perBatch[c.Batch]++
		if c.Seconds <= 0 {
			t.Errorf("cell %d/%d has non-positive duration %g", c.Batch, c.Index, c.Seconds)
		}
	}
	if perBatch[1] != 4 || perBatch[2] != 3 {
		t.Errorf("cells per batch = %v, want map[1:4 2:3]", perBatch)
	}
	var failed *CellRecord
	for i := range m.Cells {
		if m.Cells[i].Error != "" {
			failed = &m.Cells[i]
		}
	}
	if failed == nil || failed.Batch != 2 || failed.Index != 2 || failed.Error != "boom" {
		t.Errorf("failed cell record = %+v, want batch 2 index 2 error boom", failed)
	}
	if m.WallSeconds <= 0 || m.BusySeconds <= 0 {
		t.Errorf("wall/busy seconds = %g/%g, want both > 0", m.WallSeconds, m.BusySeconds)
	}
	if m.WorkerUtilization <= 0 || m.WorkerUtilization > 1 {
		t.Errorf("workerUtilization = %g, want in (0, 1]", m.WorkerUtilization)
	}
}

// TestManifestSchemaKeys pins the documented JSON schema: every key the
// README lists must be present under exactly that name.
func TestManifestSchemaKeys(t *testing.T) {
	ob := New(Config{
		Command: "test", Workers: 1,
		Kinds: []string{"afc"}, Seeds: []int64{1},
		Manifest: true,
	})
	ro := runner.Options{Parallelism: 1}
	ob.Hook(&ro)
	if err := runner.Run(1, ro, func(int) error { return nil }); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ob.WriteManifest(&buf); err != nil {
		t.Fatal(err)
	}
	var raw map[string]any
	if err := json.Unmarshal(buf.Bytes(), &raw); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{
		"command", "args", "goVersion", "gomaxprocs", "workers",
		"kinds", "seeds", "start", "wallSeconds",
		"cellsTotal", "cellsDone", "cellErrors",
		"busySeconds", "workerUtilization", "cells",
	} {
		if _, ok := raw[key]; !ok {
			t.Errorf("manifest JSON is missing documented key %q", key)
		}
	}
	cells, ok := raw["cells"].([]any)
	if !ok || len(cells) != 1 {
		t.Fatalf("cells = %v, want one record", raw["cells"])
	}
	rec := cells[0].(map[string]any)
	for _, key := range []string{"batch", "index", "seconds"} {
		if _, ok := rec[key]; !ok {
			t.Errorf("cell record is missing documented key %q", key)
		}
	}
	if _, ok := rec["error"]; ok {
		t.Error("clean cell record should omit the error key")
	}
}

func TestWriteManifestFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.json")
	ob := New(Config{Command: "test", Workers: 1, Manifest: true})
	ro := runner.Options{Parallelism: 1}
	ob.Hook(&ro)
	if err := runner.Run(2, ro, func(int) error { return nil }); err != nil {
		t.Fatal(err)
	}
	ob.Finish()
	if err := ob.WriteManifestFile(path); err != nil {
		t.Fatalf("WriteManifestFile: %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatalf("manifest file is not valid JSON: %v", err)
	}
	if m.CellsDone != 2 {
		t.Errorf("cellsDone = %d, want 2", m.CellsDone)
	}
}

// TestObserverNilAndDisabled: a nil Observer and an all-disabled one are
// both inert, so call sites can thread them unconditionally.
func TestObserverNilAndDisabled(t *testing.T) {
	var nilOb *Observer
	nilOb.Hook(&runner.Options{})
	nilOb.Sample(nil)
	nilOb.Finish()
	if m := nilOb.Metrics(); m != nil {
		t.Errorf("nil observer Metrics() = %v, want nil", m)
	}
	if err := nilOb.WriteManifest(io.Discard); err != nil {
		t.Errorf("nil observer WriteManifest: %v", err)
	}
	if err := nilOb.WriteManifestFile("/nonexistent/dir/x.json"); err != nil {
		t.Errorf("nil observer WriteManifestFile: %v", err)
	}

	off := New(Config{})
	driveTwoBatches(t, off)
	off.Finish()
	var buf bytes.Buffer
	if err := off.WriteManifest(&buf); err != nil {
		t.Errorf("disabled WriteManifest: %v", err)
	}
	if buf.Len() != 0 {
		t.Errorf("disabled observer wrote %d bytes, want none", buf.Len())
	}
	if err := off.WriteManifestFile(filepath.Join(t.TempDir(), "x.json")); err != nil {
		t.Errorf("disabled WriteManifestFile: %v", err)
	}
}

// TestBarrierRecordMixedShardCounts observes two networks whose shard
// counts differ, as `figures -shards 8` builds them: a 3x3 mesh (the
// count clamps to its 3 rows) beside an 8x8 one at 8 shards. The
// record must carry the larger count, and each shard slot must average
// over the cycles of the networks that have that shard — slots 3-7
// over the 8x8 network's cycles alone.
func TestBarrierRecordMixedShardCounts(t *testing.T) {
	ob := New(Config{Command: "test", Manifest: true})
	var nets []*network.Network
	for _, side := range []int{3, 8} {
		n := network.New(network.Config{
			Kind: network.AFC, Seed: 1, Shards: 8,
			System: config.DefaultWithMesh(topology.NewMesh(side, side)),
		})
		defer n.Close()
		n.AddTicker(traffic.NewGenerator(n, traffic.Config{
			Pattern: traffic.Uniform{Mesh: n.Mesh()},
			Rate:    0.2,
		}, n.RandStream))
		ob.ObserveBarrier(n)
		n.Run(1000)
		nets = append(nets, n)
	}
	if got := nets[0].ShardCount(); got != 3 {
		t.Fatalf("3x3 network at Shards 8 has %d shards, want 3", got)
	}
	var buf bytes.Buffer
	if err := ob.WriteManifest(&buf); err != nil {
		t.Fatalf("WriteManifest: %v", err)
	}
	var m Manifest
	if err := json.Unmarshal(buf.Bytes(), &m); err != nil {
		t.Fatalf("manifest JSON: %v", err)
	}
	b := m.Barrier
	if b == nil {
		t.Fatal("no barrier record")
	}
	if b.Shards != 8 || len(b.ShardBusyAvgNs) != 8 {
		t.Fatalf("barrier record shards = %d with %d busy slots, want 8 and 8", b.Shards, len(b.ShardBusyAvgNs))
	}
	small, large := nets[0].BarrierTally(), nets[1].BarrierTally()
	if b.Cycles != small.Cycles+large.Cycles {
		t.Errorf("barrier cycles = %d, want %d", b.Cycles, small.Cycles+large.Cycles)
	}
	for i, got := range b.ShardBusyAvgNs {
		busy, cycles := large.ShardBusyNs[i], large.Cycles
		if i < len(small.ShardBusyNs) {
			busy += small.ShardBusyNs[i]
			cycles += small.Cycles
		}
		if want := float64(busy) / float64(cycles); got != want {
			t.Errorf("shard %d busy average = %.1f ns, want %.1f (busy %d ns over %d cycles)", i, got, want, busy, cycles)
		}
	}
}

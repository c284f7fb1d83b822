package main

import (
	"encoding/json"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"afcnet/internal/obs"
	"afcnet/internal/topology"
)

func TestParseMesh(t *testing.T) {
	cases := []struct {
		in   string
		want topology.Mesh // zero with an error
	}{
		{"3x3", topology.NewMesh(3, 3)},
		{"8x4", topology.NewMesh(8, 4)},
		{"2x2", topology.NewMesh(2, 2)},
		{"3x3junk", topology.Mesh{}},
		{"3x3x3", topology.Mesh{}},
		{"3x 3", topology.Mesh{}},
		{" 3x3", topology.Mesh{}},
		{"3x", topology.Mesh{}},
		{"x3", topology.Mesh{}},
		{"3", topology.Mesh{}},
		{"3X3", topology.Mesh{}},
		{"1x3", topology.Mesh{}},
		{"3x-3", topology.Mesh{}},
		{"", topology.Mesh{}},
	}
	for _, c := range cases {
		got, err := parseMesh(c.in)
		if c.want.Width == 0 {
			if err == nil {
				t.Errorf("parseMesh(%q) = %dx%d, want an error", c.in, got.Width, got.Height)
				continue
			}
			// The error names the input, once, and leaves the command
			// prefix to the logger.
			if msg := err.Error(); !strings.Contains(msg, `"`+c.in+`"`) || strings.Contains(msg, "afcsim:") {
				t.Errorf("parseMesh(%q) error %q: want the quoted input and no command prefix", c.in, msg)
			}
			continue
		}
		if err != nil || got != c.want {
			t.Errorf("parseMesh(%q) = %+v, %v; want %+v", c.in, got, err, c.want)
		}
	}
}

// obsArgs asks for every file a run can leave behind, all in dir.
func obsArgs(dir string) []string {
	return []string{
		"-cpuprofile", filepath.Join(dir, "cpu.pprof"),
		"-memprofile", filepath.Join(dir, "mem.pprof"),
		"-manifest", filepath.Join(dir, "run.json"),
	}
}

// TestBadInputHasNoSideEffects: every input afcsim checks is checked
// before the run starts, so a bad one fails and leaves no profile or
// manifest behind.
func TestBadInputHasNoSideEffects(t *testing.T) {
	in := t.TempDir()
	badJSON := filepath.Join(in, "bad.json")
	outside := filepath.Join(in, "outside.json")
	if err := os.WriteFile(badJSON, []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	spec := `{"name": "x", "duration": 100, "rate": 0.1, "events": [{"at": 10, "deadRouters": [40]}]}`
	if err := os.WriteFile(outside, []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		args []string
	}{
		{"mesh", []string{"-mesh", "3x"}},
		{"kind", []string{"-kind", "bogus"}},
		{"bench", []string{"-bench", "bogus"}},
		{"missing scenario", []string{"-scenario", filepath.Join(in, "missing.json")}},
		{"malformed scenario", []string{"-scenario", badJSON}},
		{"scenario outside the mesh", []string{"-scenario", outside}},
		{"missing trace", []string{"-replay", filepath.Join(in, "missing.bin")}},
	}
	for _, c := range cases {
		dir := t.TempDir()
		args := append(obsArgs(dir), c.args...)
		if err := run(flag.NewFlagSet("afcsim", flag.ContinueOnError), args, io.Discard); err == nil {
			t.Errorf("%s: %q succeeded, want an error", c.name, args)
		}
		if ents, _ := os.ReadDir(dir); len(ents) != 0 {
			t.Errorf("%s: left %s behind", c.name, ents[0].Name())
		}
	}
}

// TestCellErrorWritesManifest: a cell that fails after the run started
// fails the run, and the manifest (recording the failed cell) and both
// profiles are still written.
func TestCellErrorWritesManifest(t *testing.T) {
	dir := t.TempDir()
	args := append(obsArgs(dir), "-bench", "water", "-kind", "afc", "-warmup", "10", "-tx", "100", "-limit", "50")
	err := run(flag.NewFlagSet("afcsim", flag.ContinueOnError), args, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "cycle limit 50 exceeded") {
		t.Fatalf("run error = %v, want the cycle limit", err)
	}
	b, err := os.ReadFile(filepath.Join(dir, "run.json"))
	if err != nil {
		t.Fatal(err)
	}
	var m obs.Manifest
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatal(err)
	}
	if m.Command != "afcsim" || m.CellsDone != 1 || m.CellErrors != 1 {
		t.Errorf("manifest command %q, %d cells done, %d failed; want afcsim, 1, 1", m.Command, m.CellsDone, m.CellErrors)
	}
	for _, name := range []string{"cpu.pprof", "mem.pprof"} {
		if fi, err := os.Stat(filepath.Join(dir, name)); err != nil || fi.Size() == 0 {
			t.Errorf("%s not written: %v", name, err)
		}
	}
}

// TestShardedManifestRecordsBarrier: a sharded closed-loop run records
// the barrier's wall-time split in its manifest, as the experiment
// harnesses' runs do.
func TestShardedManifestRecordsBarrier(t *testing.T) {
	dir := t.TempDir()
	args := append(obsArgs(dir), "-bench", "water", "-kind", "afc", "-shards", "2", "-warmup", "100", "-tx", "300")
	if err := run(flag.NewFlagSet("afcsim", flag.ContinueOnError), args, io.Discard); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(filepath.Join(dir, "run.json"))
	if err != nil {
		t.Fatal(err)
	}
	var m obs.Manifest
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatal(err)
	}
	if m.Barrier == nil || m.Barrier.Shards != 2 || m.Barrier.Cycles == 0 {
		t.Errorf("manifest barrier record %+v; want 2 shards over a nonzero number of cycles", m.Barrier)
	}
}

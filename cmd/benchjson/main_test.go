package main

import (
	"os"
	"path/filepath"
	"testing"
)

// TestParseSnapshotCompat pins the decoder's backward compatibility:
// one fixture per schema version v1 through v5 must parse, and the
// metrics each version introduced must be present from that version on
// and zero before it (every consumer treats zero as "skip"). A baseline
// from any recorded era must keep working as the schema grows — fields
// are only ever added.
func TestParseSnapshotCompat(t *testing.T) {
	cases := []struct {
		file      string
		schema    string
		step16    float64 // v2: large-radix 16x16 cell
		sharded16 float64 // v3: sharded-tick variant
		step32    float64 // v4: 32x32 pair (full runs only)
		step64    float64 // v5: 64x64 kilonode pair (full runs only)
	}{
		{"v1.json", "afcnet-bench/v1", 0, 0, 0, 0},
		{"v2.json", "afcnet-bench/v2", 61000, 0, 0, 0},
		{"v3.json", "afcnet-bench/v3", 61000, 59000, 0, 0},
		{"v4.json", "afcnet-bench/v4", 61000, 59000, 453000, 0},
		{"v5.json", "afcnet-bench/v5", 61000, 59000, 350000, 1400000},
	}
	for _, tc := range cases {
		t.Run(tc.file, func(t *testing.T) {
			buf, err := os.ReadFile(filepath.Join("testdata", tc.file))
			if err != nil {
				t.Fatal(err)
			}
			s, err := parseSnapshot(buf)
			if err != nil {
				t.Fatalf("parseSnapshot: %v", err)
			}
			if s.Schema != tc.schema {
				t.Errorf("schema = %q, want %q", s.Schema, tc.schema)
			}
			if got := s.Kernel.Step16x16NsPerOp; got != tc.step16 {
				t.Errorf("kernelStep16x16NsPerOp = %v, want %v", got, tc.step16)
			}
			if got := s.Kernel.Step16x16ShardedNsPerOp; got != tc.sharded16 {
				t.Errorf("kernelStep16x16ShardedNsPerOp = %v, want %v", got, tc.sharded16)
			}
			if got := s.Kernel.Step32x32NsPerOp; got != tc.step32 {
				t.Errorf("kernelStep32x32NsPerOp = %v, want %v", got, tc.step32)
			}
			if got := s.Kernel.Step64x64NsPerOp; got != tc.step64 {
				t.Errorf("kernelStep64x64NsPerOp = %v, want %v", got, tc.step64)
			}
		})
	}
}

// TestParseSnapshotRejects pins the failure modes: a snapshot from a
// schema this binary does not know (a future version, or a typo) and
// plain garbage must both error instead of zero-filling silently.
func TestParseSnapshotRejects(t *testing.T) {
	if _, err := parseSnapshot([]byte(`{"schema":"afcnet-bench/v99"}`)); err == nil {
		t.Error("parseSnapshot accepted an unknown future schema")
	}
	if _, err := parseSnapshot([]byte(`not json`)); err == nil {
		t.Error("parseSnapshot accepted malformed JSON")
	}
}

// TestCheckedInSnapshotsParse runs the decoder over every BENCH_<n>.json
// actually recorded in the repo root — the fixtures above are
// hand-written; this keeps the real trajectory readable too.
func TestCheckedInSnapshotsParse(t *testing.T) {
	files := benchFiles("../..")
	if len(files) == 0 {
		t.Skip("no recorded snapshots found")
	}
	for _, f := range files {
		buf, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := parseSnapshot(buf); err != nil {
			t.Errorf("%s: %v", filepath.Base(f), err)
		}
	}
}

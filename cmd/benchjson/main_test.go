package main

import (
	"os"
	"path/filepath"
	"testing"
)

// TestParseSnapshotRejects pins the failure modes: a snapshot from a
// schema other than the one this binary reads (an earlier or future
// version, or a typo) and plain garbage must both error instead of
// zero-filling silently.
func TestParseSnapshotRejects(t *testing.T) {
	for _, schema := range []string{"afcnet-bench/v4", "afcnet-bench/v99"} {
		if _, err := parseSnapshot([]byte(`{"schema":"` + schema + `"}`)); err == nil {
			t.Errorf("parseSnapshot accepted schema %q", schema)
		}
	}
	if _, err := parseSnapshot([]byte(`not json`)); err == nil {
		t.Error("parseSnapshot accepted malformed JSON")
	}
}

// TestCheckedInSnapshotsParse runs the decoder over every BENCH_<n>.json
// recorded in the repo root, so the perf trajectory stays readable.
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

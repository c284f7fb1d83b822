package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// parseSnapshot decodes a recorded BENCH_<n>.json, rejecting any schema
// but snapshotSchema instead of reading its keys as this schema's.
func parseSnapshot(buf []byte) (Snapshot, error) {
	var s Snapshot
	if err := json.Unmarshal(buf, &s); err != nil {
		return Snapshot{}, err
	}
	if s.Schema != snapshotSchema {
		return Snapshot{}, fmt.Errorf("unknown schema %q", s.Schema)
	}
	if len(s.Benchmarks) == 0 {
		return Snapshot{}, errors.New("no benchmarks")
	}
	return s, nil
}

// TestParseSnapshotRejects pins the failure modes: a snapshot from a
// schema other than the one this binary writes (an earlier or future
// version, or a typo), one without benchmarks and plain garbage must all
// error instead of zero-filling silently.
func TestParseSnapshotRejects(t *testing.T) {
	for _, schema := range []string{"afcnet-bench/v5", "afcnet-bench/v99"} {
		if _, err := parseSnapshot([]byte(`{"schema":"` + schema + `","benchmarks":{"BenchmarkKernelStep":{"ns/op":1}}}`)); err == nil {
			t.Errorf("parseSnapshot accepted schema %q", schema)
		}
	}
	if _, err := parseSnapshot([]byte(`{"schema":"` + snapshotSchema + `"}`)); err == nil {
		t.Error("parseSnapshot accepted a snapshot without benchmarks")
	}
	if _, err := parseSnapshot([]byte(`not json`)); err == nil {
		t.Error("parseSnapshot accepted malformed JSON")
	}
}

// TestCheckedInSnapshotsParse runs the decoder over every BENCH_<n>.json
// recorded in the repo root, so the perf trajectory stays readable.
func TestCheckedInSnapshotsParse(t *testing.T) {
	files, _ := filepath.Glob("../../BENCH_*.json")
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

func TestParseBench(t *testing.T) {
	for _, tc := range []struct {
		name, out string
		want      results
		cpu       string
		fails     bool
	}{{
		name: "suffix, custom units, PASS and ok lines",
		out: "goos: linux\ngoarch: amd64\npkg: afcnet\ncpu: Test CPU @ 2.0GHz\n" +
			"BenchmarkKernelStep-2   \t  100000\t      3007 ns/op\t       0 B/op\t       0 allocs/op\n" +
			"BenchmarkKernelStepKinds/16x16/backpressureless-drop-2 \t 20000\t 81234 ns/op\t 1676 B/op\t 1 allocs/op\n" +
			"BenchmarkFig2aLowLoadPerformance \t 1\t 660463801 ns/op\t 1.032 perf/afc\t 853072 B/op\t 1649 allocs/op\n" +
			"PASS\nok  \tafcnet\t12.345s\n",
		want: results{
			"BenchmarkKernelStep": {"ns/op": 3007, "B/op": 0, "allocs/op": 0},
			"BenchmarkKernelStepKinds/16x16/backpressureless-drop": {"ns/op": 81234, "B/op": 1676, "allocs/op": 1},
			"BenchmarkFig2aLowLoadPerformance":                     {"ns/op": 660463801, "perf/afc": 1.032, "B/op": 853072, "allocs/op": 1649},
		},
		cpu: "Test CPU @ 2.0GHz",
	}, {
		name:  "malformed value",
		out:   "BenchmarkKernelStep-2 \t 100000\t 30x7 ns/op\n",
		fails: true,
	}, {
		name:  "value without unit",
		out:   "BenchmarkKernelStep-2 \t 100000\t 3007 ns/op\t 0\n",
		fails: true,
	}, {
		name:  "iteration count not a count",
		out:   "BenchmarkKernelStep-2 \t 1e5\t 3007 ns/op\n",
		fails: true,
	}, {
		name:  "failed benchmark",
		out:   "BenchmarkKernelStep-2 \t--- FAIL: BenchmarkKernelStep-2\n",
		fails: true,
	}, {
		name:  "no benchmark lines",
		out:   "PASS\nok  \tafcnet\t0.01s\n",
		fails: true,
	}} {
		t.Run(tc.name, func(t *testing.T) {
			got, cpu, err := parseBench([]byte(tc.out))
			if tc.fails {
				if err == nil {
					t.Fatalf("parsed %q without error: %v", tc.out, got)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, tc.want) || cpu != tc.cpu {
				t.Errorf("got %v, cpu %q; want %v, cpu %q", got, cpu, tc.want, tc.cpu)
			}
		})
	}
}

func TestVerdict(t *testing.T) {
	base := []float64{2400, 2410, 2420, 2430, 2440, 2450, 2460, 2470, 2480, 2490} // Q3 2467.5
	zeros := make([]float64, rounds)
	shifted := func(d float64, slower int) []float64 {
		out := make([]float64, len(base))
		for i, v := range base {
			out[i] = v - d
			if i < slower {
				out[i] = v + d
			}
		}
		return out
	}
	for _, tc := range []struct {
		name       string
		tree       []float64
		treeAllocs []float64
		wins       int
		fails      bool
	}{
		{name: "A/A", tree: base, treeAllocs: zeros, wins: 0},
		{name: "8 of 10 slower, median above Q3", tree: shifted(100, 8), treeAllocs: zeros, wins: 2, fails: true},
		{name: "7 of 10 slower", tree: shifted(100, 7), treeAllocs: zeros, wins: 3},
		{name: "10 of 10 slower, median within Q3", tree: shifted(5, 10), treeAllocs: zeros, wins: 0},
		{name: "allocs/op rose", tree: base, treeAllocs: []float64{1, 1, 1, 1, 1, 1, 1, 1, 1, 1}, wins: 0, fails: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			wins, why := cellRuns{ns: [2][]float64{base, tc.tree}, allocs: [2][]float64{zeros, tc.treeAllocs}}.verdict()
			if wins != tc.wins || (why != "") != tc.fails {
				t.Errorf("verdict = %d wins, %q; want %d wins, failing %v", wins, why, tc.wins, tc.fails)
			}
		})
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	for q, want := range map[float64]float64{0: 1, 0.25: 1.75, 0.5: 2.5, 0.75: 3.25, 1: 4} {
		if got := quantile(xs, q); got != want {
			t.Errorf("quantile(%v, %g) = %g, want %g", xs, q, got, want)
		}
	}
	if got := quantile([]float64{7}, 0.75); got != 7 {
		t.Errorf("quantile of one sample = %g, want 7", got)
	}
}

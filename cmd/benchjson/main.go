// Command benchjson records the kernel benchmarks as a numbered
// BENCH_<n>.json snapshot, and gates the working tree against a base
// revision on the same host. It defines no benchmark: every number is one
// that `go test -bench -benchmem` prints for a cell of bench_test.go or
// of a router package (internal/core, internal/vcrouter,
// internal/deflect), so each cell has one definition.
//
//	benchjson [-label text] [-o file]  # record (default: the next free BENCH_<n>.json)
//	benchjson -base REV                # paired gate
//
// A snapshot keeps every value/unit pair of ^BenchmarkKernelStep and
// ^BenchmarkTick by benchmark name, with the host it ran on. It is
// history: no gate reads one, since a number recorded on one host says
// nothing of another.
//
// The gate builds REV's root test binary (from git archive) and the
// tree's once each, runs the gated cells in alternating order at fixed
// iteration counts, and prints each cell's median, quartiles and wins.
// It fails when the tree loses minLosses of rounds rounds of a gated cell
// with its median above REV's upper quartile; when a gated cell's
// allocs/op rises; when BenchmarkFig2aLowLoadPerformance at one CPU,
// where its heap repeats to within a few bytes, allocates more than
// heapSlack times REV's B/op; or when, with GOMAXPROCS >= 2, the tree's
// BenchmarkKernelStep32x32Sharded is not faster than
// BenchmarkKernelStep32x32.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// snapshotSchema is the one schema of every BENCH_<n>.json.
const snapshotSchema = "afcnet-bench/v6"

// The gate's rule. By chance alone, a tree loses 8 or more of 10 rounds
// 5.5% of the time; its median must also clear the base's upper quartile.
const (
	rounds    = 10
	minLosses = 8
	heapSlack = 1.10
)

// gated are the kernel cells the paired gate times, each at an iteration
// count that steps for about 0.3 s per run on a 2-CPU VM.
var gated = []struct{ name, benchtime string }{
	{"BenchmarkKernelStep", "100000x"},
	{"BenchmarkKernelStep16x16", "4000x"},
}

// results maps a benchmark name to its value per unit ("ns/op", ...).
type results map[string]map[string]float64

// Snapshot is the recorded BENCH_<n>.json schema. CPU, NumCPU and
// GOMAXPROCS are empty in snapshots recorded before they were kept.
type Snapshot struct {
	Schema     string  `json:"schema"`
	Label      string  `json:"label,omitempty"`
	GoVersion  string  `json:"goVersion"`
	CPU        string  `json:"cpu,omitempty"`
	NumCPU     int     `json:"numCPU,omitempty"`
	GOMAXPROCS int     `json:"gomaxprocs,omitempty"`
	Benchmarks results `json:"benchmarks"`
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("benchjson: ")
	out := flag.String("o", nextBenchPath(), "output path")
	label := flag.String("label", "", "free-text label recorded in the snapshot")
	base := flag.String("base", "", "instead of recording, gate the working tree against this git revision")
	flag.Parse()
	if flag.NArg() > 0 {
		log.Fatalf("unexpected argument %q", flag.Arg(0))
	}
	var err error
	if *base != "" {
		err = gate(*base)
	} else {
		err = record(*out, *label)
	}
	if err != nil {
		log.Fatal(err)
	}
}

// record runs the recorded benchmarks and writes them as a snapshot.
func record(path, label string) error {
	s := Snapshot{
		Schema: snapshotSchema, Label: label, GoVersion: runtime.Version(),
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
	// KernelStep names the root package's benchmarks, Tick each router
	// datapath's; no two packages share a benchmark name.
	out, err := run("", "go", "test", "-run", "^$", "-bench", "^Benchmark(KernelStep|Tick)", "-benchmem",
		".", "./internal/core", "./internal/vcrouter", "./internal/deflect")
	if err != nil {
		return err
	}
	os.Stderr.Write(out)
	if s.Benchmarks, s.CPU, err = parseBench(out); err != nil {
		return err
	}
	buf, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", path)
	return nil
}

// run runs a command in dir and returns its output, also with any error.
func run(dir string, args ...string) ([]byte, error) {
	cmd := exec.Command(args[0], args[1:]...)
	cmd.Dir = dir
	out, err := cmd.CombinedOutput()
	if err != nil {
		return nil, fmt.Errorf("%s: %v\n%s", strings.Join(args, " "), err, out)
	}
	return out, nil
}

var procSuffix = regexp.MustCompile(`-\d+$`)

// parseBench reads `go test -bench` output: each benchmark line's
// value/unit pairs keyed by name without the -N suffix, and the cpu:
// line. Other lines (goos:, pkg:, PASS, ok) are skipped.
func parseBench(out []byte) (results, string, error) {
	res, cpu := results{}, ""
	for _, line := range strings.Split(string(out), "\n") {
		if c, ok := strings.CutPrefix(line, "cpu: "); ok {
			cpu = strings.TrimSpace(c)
			continue
		}
		f := strings.Fields(line)
		if len(f) == 0 || !strings.HasPrefix(f[0], "Benchmark") {
			continue
		}
		bad := fmt.Errorf("malformed benchmark line %q", line)
		if len(f) < 4 || len(f)%2 != 0 || strings.Trim(f[1], "0123456789") != "" {
			return nil, "", bad
		}
		m := map[string]float64{}
		for i := 2; i < len(f); i += 2 {
			v, err := strconv.ParseFloat(f[i], 64)
			if err != nil {
				return nil, "", bad
			}
			m[f[i+1]] = v
		}
		res[procSuffix.ReplaceAllString(f[0], "")] = m
	}
	if len(res) == 0 {
		return nil, "", errors.New("no benchmark results")
	}
	return res, cpu, nil
}

// nextBenchPath returns the first BENCH_<n>.json that stat fails on; an
// error other than "does not exist" then surfaces when the write fails.
func nextBenchPath() string {
	for n := 0; ; n++ {
		p := fmt.Sprintf("BENCH_%d.json", n)
		if _, err := os.Stat(p); err != nil {
			return p
		}
	}
}

// gate runs the paired gate of the package comment against rev.
func gate(rev string) error {
	tmp, err := os.MkdirTemp("", "benchjson-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	tar, dirs := filepath.Join(tmp, "base.tar"), [2]string{filepath.Join(tmp, "base"), "."}
	bins := [2]string{filepath.Join(tmp, "base.test"), filepath.Join(tmp, "tree.test")}
	// -trimpath lets the two builds share the build cache.
	for _, c := range [][]string{
		{"", "git", "archive", "--prefix=base/", "-o", tar, rev},
		{"", "tar", "-xf", tar, "-C", tmp},
		{dirs[0], "go", "test", "-c", "-trimpath", "-o", bins[0], "."},
		{dirs[1], "go", "test", "-c", "-trimpath", "-o", bins[1], "."},
	} {
		if _, err := run(c[0], c[1:]...); err != nil {
			return err
		}
	}
	// bench runs names in one side's binary from its package directory.
	bench := func(side int, benchtime string, cpu int, names ...string) (results, error) {
		out, err := run(dirs[side], bins[side], "-test.run", "^$", "-test.bench", "^("+strings.Join(names, "|")+")$",
			"-test.benchmem", "-test.benchtime", benchtime, "-test.cpu", strconv.Itoa(cpu), "-test.timeout", "10m")
		if err != nil {
			return nil, err
		}
		res, _, err := parseBench(out)
		for _, n := range names {
			if err == nil && res[n] == nil {
				err = fmt.Errorf("%s printed no result", n)
			}
		}
		return res, err
	}
	failed := false
	report := func(bad bool, why, format string, args ...any) {
		m := "ok"
		if bad {
			failed, m = true, "FAIL: "+why
		}
		fmt.Printf(format+"  %s\n", append(args, m)...)
	}

	procs := runtime.GOMAXPROCS(0)
	fmt.Printf("benchjson: the working tree against %s, %d alternating rounds at GOMAXPROCS=%d\n", rev, rounds, procs)
	runs := make([]cellRuns, len(gated))
	for r := 0; r < rounds; r++ {
		for c, g := range gated {
			for k := 0; k < 2; k++ { // back to back, to see the same host
				side := (r + k) % 2 // the base runs first in even rounds
				res, err := bench(side, g.benchtime, procs, g.name)
				if err != nil {
					return err
				}
				runs[c].ns[side] = append(runs[c].ns[side], res[g.name]["ns/op"])
				runs[c].allocs[side] = append(runs[c].allocs[side], res[g.name]["allocs/op"])
			}
		}
	}
	for c, g := range gated {
		rc := runs[c]
		wins, v := rc.verdict()
		report(v != "", v, "%-24s ns/op median [Q1, Q3]: base %s, tree %s, tree faster in %d/%d; allocs/op %g -> %g",
			g.name, spread(rc.ns[0]), spread(rc.ns[1]), wins, rounds, quantile(rc.allocs[0], 0.5), quantile(rc.allocs[1], 0.5))
	}

	const fig2a = "BenchmarkFig2aLowLoadPerformance"
	var heap [2]map[string]float64
	for side := range bins {
		res, err := bench(side, "1x", 1, fig2a)
		if err != nil {
			return err
		}
		heap[side] = res[fig2a]
	}
	b, t := heap[0], heap[1]
	report(t["B/op"] > heapSlack*b["B/op"], fmt.Sprintf("B/op above %gx the base", heapSlack),
		"%s at 1 CPU: %.0f -> %.0f B/op (%+.1f%%), %.0f -> %.0f allocs/op",
		fig2a, b["B/op"], t["B/op"], 100*(t["B/op"]/b["B/op"]-1), b["allocs/op"], t["allocs/op"])

	if procs < 2 {
		fmt.Printf("BenchmarkKernelStep32x32Sharded check skipped: GOMAXPROCS=%d, needs 2\n", procs)
	} else {
		res, err := bench(1, "200x", procs, "BenchmarkKernelStep32x32", "BenchmarkKernelStep32x32Sharded")
		if err != nil {
			return err
		}
		serial, sharded := res["BenchmarkKernelStep32x32"]["ns/op"], res["BenchmarkKernelStep32x32Sharded"]["ns/op"]
		report(sharded >= serial, "the sharded tick is not faster than serial",
			"BenchmarkKernelStep32x32Sharded / BenchmarkKernelStep32x32 (tree): %.0f / %.0f ns/op = %.2f", sharded, serial, sharded/serial)
	}
	if failed {
		return errors.New("regression (see above)")
	}
	fmt.Println("benchjson: pass")
	return nil
}

// cellRuns is one gated cell's per-round results, [0] the base's, [1] the tree's.
type cellRuns struct{ ns, allocs [2][]float64 }

// verdict counts the rounds the tree won (a tie is neither a win nor a
// loss), and says why it regressed on the cell, or "" if it did not.
func (c cellRuns) verdict() (wins int, why string) {
	losses := 0
	for r := range c.ns[0] {
		if c.ns[1][r] < c.ns[0][r] {
			wins++
		} else if c.ns[1][r] > c.ns[0][r] {
			losses++
		}
	}
	switch {
	case losses >= minLosses && quantile(c.ns[1], 0.5) > quantile(c.ns[0], 0.75):
		why = fmt.Sprintf("slower in %d of %d rounds, median above the base's upper quartile", losses, len(c.ns[0]))
	case quantile(c.allocs[1], 0.5) > quantile(c.allocs[0], 0.5):
		why = "allocs/op rose"
	}
	return wins, why
}

// spread formats a sample's median and quartiles.
func spread(xs []float64) string {
	return fmt.Sprintf("%.0f [%.0f, %.0f]", quantile(xs, 0.5), quantile(xs, 0.25), quantile(xs, 0.75))
}

// quantile returns the q-quantile of xs, interpolating linearly between
// the two nearest ranks.
func quantile(xs []float64, q float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

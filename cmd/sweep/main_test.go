package main

import (
	"flag"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

func TestSweepRates(t *testing.T) {
	cases := []struct {
		name           string
		min, max, step float64
		want           []float64 // nil with ok=false
		ok             bool
	}{
		{"one point", 0.1, 0.1, 0.05, []float64{0.1}, true},
		{"inclusive max", 0.1, 0.2, 0.05, []float64{0.1, 0.15000000000000002, 0.2}, true},
		{"zero min", 0, 0.1, 0.1, []float64{0, 0.1}, true},
		{"zero step", 0.1, 0.5, 0, nil, false},
		{"negative step", 0.1, 0.5, -0.05, nil, false},
		{"NaN step", 0.1, 0.5, math.NaN(), nil, false},
		{"min above max", 0.3, 0.1, 0.05, nil, false},
		{"negative min", -0.1, 0.5, 0.05, nil, false},
		{"NaN min", math.NaN(), 0.5, 0.05, nil, false},
		{"infinite max", 0.1, math.Inf(1), 0.05, nil, false},
	}
	for _, c := range cases {
		got, err := sweepRates(c.min, c.max, c.step)
		if (err == nil) != c.ok {
			t.Errorf("%s: sweepRates(%g, %g, %g) error = %v, want ok=%v", c.name, c.min, c.max, c.step, err, c.ok)
			continue
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s: sweepRates(%g, %g, %g) = %v, want %v", c.name, c.min, c.max, c.step, got, c.want)
		}
	}
}

func TestSweepSeeds(t *testing.T) {
	cases := []struct {
		n    int
		want []int64
		ok   bool
	}{
		{1, []int64{1}, true},
		{3, []int64{1, 2, 3}, true},
		{0, nil, false},
		{-2, nil, false},
	}
	for _, c := range cases {
		got, err := sweepSeeds(c.n)
		if (err == nil) != c.ok {
			t.Errorf("sweepSeeds(%d) error = %v, want ok=%v", c.n, err, c.ok)
			continue
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("sweepSeeds(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

// TestBadInputHasNoSideEffects: every input sweep checks is checked
// before the run starts, so a bad one fails and leaves no profile or
// manifest behind.
func TestBadInputHasNoSideEffects(t *testing.T) {
	in := t.TempDir()
	badJSON := filepath.Join(in, "bad.json")
	if err := os.WriteFile(badJSON, []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		args []string
	}{
		{"kind", []string{"-kinds", "afc,bogus"}},
		{"pattern", []string{"-pattern", "bogus"}},
		{"missing scenario", []string{"-scenario", filepath.Join(in, "missing.json")}},
		{"malformed scenario", []string{"-scenario", badJSON}},
		{"min above max", []string{"-min", "0.5", "-max", "0.1"}},
		{"zero step", []string{"-step", "0"}},
		{"zero seeds", []string{"-seeds", "0"}},
	}
	for _, c := range cases {
		dir := t.TempDir()
		args := append([]string{
			"-cpuprofile", filepath.Join(dir, "cpu.pprof"),
			"-memprofile", filepath.Join(dir, "mem.pprof"),
			"-manifest", filepath.Join(dir, "run.json"),
		}, c.args...)
		if err := run(flag.NewFlagSet("sweep", flag.ContinueOnError), args, io.Discard); err == nil {
			t.Errorf("%s: %q succeeded, want an error", c.name, args)
		}
		if ents, _ := os.ReadDir(dir); len(ents) != 0 {
			t.Errorf("%s: left %s behind", c.name, ents[0].Name())
		}
	}
}

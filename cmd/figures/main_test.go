package main

import (
	"bytes"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/quick-all.txt from the current code")

// quickAllPath is the recorded stdout of `figures -quick -fig all`.
const quickAllPath = "testdata/quick-all.txt"

// TestQuickAllOutput: `figures -quick -fig all` prints the recorded
// testdata/quick-all.txt byte for byte. The file is plain text, so an
// intended change to a figure shows up as a readable diff; -update
// rewrites it from the current code.
func TestQuickAllOutput(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the whole evaluation at -quick lengths")
	}
	var buf bytes.Buffer
	if err := run(flag.NewFlagSet("figures", flag.ContinueOnError), []string{"-quick", "-fig", "all"}, &buf); err != nil {
		t.Fatal(err)
	}
	if *update {
		if err := os.WriteFile(quickAllPath, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(quickAllPath)
	if err != nil {
		t.Fatal(err)
	}
	if got := buf.String(); got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("stdout differs from %s at line %d:\n got: %q\nwant: %q", quickAllPath, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("stdout has %d lines, %s has %d", len(gl), quickAllPath, len(wl))
	}
}

// TestBadInputHasNoSideEffects: every input figures checks is checked
// before the run starts, so a bad one fails and leaves no profile,
// manifest, JSON file or SVG directory behind. -json, -svg and
// -scenario do not excuse a -fig that names no artifact.
func TestBadInputHasNoSideEffects(t *testing.T) {
	in := t.TempDir()
	badJSON := filepath.Join(in, "bad.json")
	spec := filepath.Join(in, "spec.json")
	for path, body := range map[string]string{badJSON: "{", spec: `{"duration": 100, "rate": 0.1}`} {
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	cases := []struct {
		name string
		args func(dir string) []string
	}{
		{"artifact", func(string) []string { return []string{"-fig", "bogus"} }},
		{"artifact with -svg", func(dir string) []string { return []string{"-fig", "bogus", "-svg", filepath.Join(dir, "svg")} }},
		{"artifact with -json", func(dir string) []string { return []string{"-fig", "bogus", "-json", filepath.Join(dir, "out.json")} }},
		{"artifact with -scenario", func(string) []string { return []string{"-fig", "bogus", "-scenario", spec} }},
		{"missing scenario", func(string) []string { return []string{"-scenario", filepath.Join(in, "missing.json")} }},
		{"malformed scenario", func(string) []string { return []string{"-fig", "gossip", "-scenario", badJSON} }},
	}
	for _, c := range cases {
		dir := t.TempDir()
		args := append([]string{
			"-quick",
			"-cpuprofile", filepath.Join(dir, "cpu.pprof"),
			"-memprofile", filepath.Join(dir, "mem.pprof"),
			"-manifest", filepath.Join(dir, "run.json"),
		}, c.args(dir)...)
		if err := run(flag.NewFlagSet("figures", flag.ContinueOnError), args, io.Discard); err == nil {
			t.Errorf("%s: %q succeeded, want an error", c.name, args)
		}
		if ents, _ := os.ReadDir(dir); len(ents) != 0 {
			t.Errorf("%s: left %s behind", c.name, ents[0].Name())
		}
	}
}

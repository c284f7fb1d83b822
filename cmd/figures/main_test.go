package main

import (
	"flag"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// TestBadInputHasNoSideEffects: every input figures checks is checked
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
		{"artifact", []string{"-fig", "bogus"}},
		{"missing scenario", []string{"-scenario", filepath.Join(in, "missing.json")}},
		{"malformed scenario", []string{"-fig", "gossip", "-scenario", badJSON}},
	}
	for _, c := range cases {
		dir := t.TempDir()
		args := append([]string{
			"-quick",
			"-cpuprofile", filepath.Join(dir, "cpu.pprof"),
			"-memprofile", filepath.Join(dir, "mem.pprof"),
			"-manifest", filepath.Join(dir, "run.json"),
		}, c.args...)
		if err := run(flag.NewFlagSet("figures", flag.ContinueOnError), args, io.Discard); err == nil {
			t.Errorf("%s: %q succeeded, want an error", c.name, args)
		}
		if ents, _ := os.ReadDir(dir); len(ents) != 0 {
			t.Errorf("%s: left %s behind", c.name, ents[0].Name())
		}
	}
}

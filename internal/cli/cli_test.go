package cli

import (
	"flag"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"testing"

	"afcnet/internal/experiments"
	"afcnet/internal/obs"
)

// TestRegister: the shared flags keep their names and defaults, and
// Options copies the parsed run settings into experiments.Options.
func TestRegister(t *testing.T) {
	fs := flag.NewFlagSet("cmd", flag.ContinueOnError)
	f := Register(fs, "scenario help")
	want := map[string]string{
		"parallel": strconv.Itoa(runtime.GOMAXPROCS(0)), "check": "false", "shards": "0",
		"scenario": "", "manifest": "", "progress": "false",
		"cpuprofile": "", "memprofile": "", "debug-addr": "",
	}
	n := 0
	fs.VisitAll(func(fl *flag.Flag) {
		n++
		if def, ok := want[fl.Name]; !ok || fl.DefValue != def {
			t.Errorf("-%s default %q; want one of %v", fl.Name, fl.DefValue, want)
		}
	})
	if n != len(want) {
		t.Errorf("Register defined %d flags, want %d", n, len(want))
	}

	if err := fs.Parse([]string{"-parallel", "3", "-check", "-shards", "2"}); err != nil {
		t.Fatal(err)
	}
	ob := obs.New(obs.Config{})
	opt := f.Options(experiments.Options{CycleLimit: 7}, ob)
	if opt.Parallelism != 3 || !opt.Check || opt.Shards != 2 || opt.Obs != ob || opt.CycleLimit != 7 {
		t.Errorf("Options = %+v", opt)
	}
}

// TestFinishKeepsFlushing: finish reports a manifest it cannot write, and
// still writes the heap profile and stops and writes the CPU profile.
func TestFinishKeepsFlushing(t *testing.T) {
	dir := t.TempDir()
	f := &Flags{
		Manifest:   filepath.Join(dir, "missing", "run.json"),
		CPUProfile: filepath.Join(dir, "cpu.pprof"),
		MemProfile: filepath.Join(dir, "mem.pprof"),
	}
	_, finish, err := f.Start("test", nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := finish(); err == nil || !strings.Contains(err.Error(), "run.json") {
		t.Errorf("finish error = %v, want the manifest's", err)
	}
	for _, name := range []string{"cpu.pprof", "mem.pprof"} {
		if fi, err := os.Stat(filepath.Join(dir, name)); err != nil || fi.Size() == 0 {
			t.Errorf("%s not written: %v", name, err)
		}
	}
	if err := pprof.StartCPUProfile(io.Discard); err != nil {
		t.Errorf("CPU profile still running after finish: %v", err)
	}
	pprof.StopCPUProfile()
}

// Package cli holds what the afcsim, figures and sweep commands share:
// their common flags, the router-kind names they accept and the run
// lifecycle.
//
// The common flags are -parallel (worker-pool size; results do not
// depend on it), -check (attach the internal/check invariant checker),
// -shards (split each network's tick across row bands), -scenario (a
// JSON spec from internal/scenario) and the observability flags of
// internal/obs, which are off by default and invisible to results:
// -manifest (a JSON run record), -progress (a live stderr line),
// -cpuprofile/-memprofile (pprof profiles) and -debug-addr
// (net/http/pprof plus the simulator's counters as expvars).
//
// A command checks every input before it calls Start, so a bad input
// fails with no profile, manifest or debug endpoint started, and calls
// the finish that Start returns on every exit path after it.
package cli

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"runtime"

	"afcnet/internal/experiments"
	"afcnet/internal/network"
	"afcnet/internal/obs"
	"afcnet/internal/scenario"
	"afcnet/internal/topology"
)

// Flags holds the values of the shared flags.
type Flags struct {
	Parallel   int
	Check      bool
	Shards     int
	Scenario   string
	Manifest   string
	Progress   bool
	CPUProfile string
	MemProfile string
	DebugAddr  string
}

// Register defines the shared flags on fs. scenarioUsage is the -scenario
// help text, which says what the command does with the spec.
func Register(fs *flag.FlagSet, scenarioUsage string) *Flags {
	f := &Flags{}
	fs.IntVar(&f.Parallel, "parallel", runtime.GOMAXPROCS(0), "worker-pool size; <=0 means all CPUs, 1 is serial (results are identical either way)")
	fs.BoolVar(&f.Check, "check", false, "attach the runtime invariant checker to every run; identical results, slower")
	fs.IntVar(&f.Shards, "shards", 0, "shard each network's tick across this many row bands of worker goroutines; <=1 is the serial kernel, identical results")
	fs.StringVar(&f.Scenario, "scenario", "", scenarioUsage)
	fs.StringVar(&f.Manifest, "manifest", "", "write a JSON run manifest (config, per-cell wall times, worker utilization) to this file")
	fs.BoolVar(&f.Progress, "progress", false, "print a live progress line to stderr")
	fs.StringVar(&f.CPUProfile, "cpuprofile", "", "write a CPU profile to this file")
	fs.StringVar(&f.MemProfile, "memprofile", "", "write a heap profile to this file")
	fs.StringVar(&f.DebugAddr, "debug-addr", "", "serve net/http/pprof and expvar simulator counters on this address (e.g. localhost:6060)")
	return f
}

// kindsByName maps the router-kind names the commands accept.
var kindsByName = map[string]network.Kind{
	"backpressured":    network.Backpressured,
	"ideal-bypass":     network.BackpressuredIdealBypass,
	"backpressureless": network.Bless,
	"drop":             network.BlessDrop,
	"afc":              network.AFC,
	"afc-always-bp":    network.AFCAlwaysBuffered,
}

// Kind returns the router kind a -kind or -kinds flag names.
func Kind(name string) (network.Kind, error) {
	k, ok := kindsByName[name]
	if !ok {
		return 0, fmt.Errorf("unknown kind %q", name)
	}
	return k, nil
}

// LoadScenario parses the -scenario spec and checks it against mesh. It
// returns nil, nil when -scenario is unset.
func (f *Flags) LoadScenario(mesh topology.Mesh) (*scenario.Spec, error) {
	if f.Scenario == "" {
		return nil, nil
	}
	spec, err := scenario.ParseFile(f.Scenario)
	if err != nil {
		return nil, err
	}
	if err := spec.ValidateFor(mesh); err != nil {
		return nil, err
	}
	return spec, nil
}

// RunScenario runs spec across kinds, records the spec and its results
// in opt.Obs's manifest and writes the per-phase report to w.
func RunScenario(w io.Writer, spec *scenario.Spec, kinds []network.Kind, opt experiments.Options) error {
	rs, err := experiments.Scenario(kinds, spec, opt)
	if err != nil {
		return err
	}
	opt.Obs.RecordScenario(spec, rs)
	experiments.WriteScenario(w, spec.Name, rs)
	return nil
}

// Start begins a run whose input has been checked: it starts the debug
// endpoint and the CPU profile and builds the observer, which records
// command, args, kinds and seeds in the manifest. The returned finish
// closes the observer, writes the manifest and the heap profile and
// stops the CPU profile; it returns every error it met, and an error
// does not skip a later step.
func (f *Flags) Start(command string, args []string, kinds []network.Kind, seeds []int64) (ob *obs.Observer, finish func() error, err error) {
	cfg := obs.Config{
		Command:  command,
		Args:     args,
		Workers:  f.Parallel,
		Seeds:    seeds,
		Manifest: f.Manifest != "",
		Progress: f.Progress,
	}
	for _, k := range kinds {
		cfg.Kinds = append(cfg.Kinds, k.String())
	}
	if f.DebugAddr != "" {
		cfg.Metrics = &obs.Metrics{}
		addr, err := obs.ServeDebug(f.DebugAddr, cfg.Metrics)
		if err != nil {
			return nil, nil, err
		}
		log.Printf("debug endpoint at http://%s/debug/vars (pprof under /debug/pprof/)", addr)
	}
	stopCPU, err := obs.StartCPUProfile(f.CPUProfile)
	if err != nil {
		return nil, nil, err
	}
	ob = obs.New(cfg)
	finish = func() error {
		ob.Finish()
		err := errors.Join(ob.WriteManifestFile(f.Manifest), obs.WriteHeapProfile(f.MemProfile))
		stopCPU()
		return err
	}
	return ob, finish, nil
}

// Options returns opt with the shared run settings and ob copied in.
func (f *Flags) Options(opt experiments.Options, ob *obs.Observer) experiments.Options {
	opt.Parallelism = f.Parallel
	opt.Check = f.Check
	opt.Shards = f.Shards
	opt.Obs = ob
	return opt
}

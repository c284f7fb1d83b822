package scenario

import (
	"math"
	"strings"
	"testing"

	"afcnet/internal/topology"
	"afcnet/internal/traffic"
)

func mustParse(t *testing.T, src string) *Spec {
	t.Helper()
	s, err := Parse([]byte(src))
	if err != nil {
		t.Fatalf("Parse(%q): %v", src, err)
	}
	return s
}

func TestParseValid(t *testing.T) {
	s := mustParse(t, `{
		"name": "ramp",
		"duration": 5000,
		"rate": 0.05,
		"pattern": "uniform",
		"events": [
			{"at": 1000, "label": "mid", "rate": 0.2},
			{"at": 2000, "pattern": "hotspot:4:0.8", "burst": {"period": 100, "on": 30}},
			{"at": 3000, "deadLinks": [{"node": 4, "dir": "E"}], "deadRouters": [8]},
			{"at": 4000, "throttles": [{"node": 0, "dir": "s", "period": 50, "on": 25}]}
		]
	}`)
	if s.Name != "ramp" || s.Duration != 5000 || len(s.Events) != 4 {
		t.Fatalf("unexpected spec: %+v", s)
	}
	mesh := topology.NewMesh(3, 3)
	if err := s.ValidateFor(mesh); err != nil {
		t.Fatalf("ValidateFor: %v", err)
	}
	cfg := s.TrafficConfig(mesh)
	if cfg.Rate != 0.05 || cfg.Pattern != (traffic.Uniform{Mesh: mesh}) {
		t.Fatalf("TrafficConfig: %+v", cfg)
	}
}

func TestParseRejects(t *testing.T) {
	cases := []struct {
		name, src, want string
	}{
		{"bad json", `{`, "scenario:"},
		{"unknown field", `{"duration": 100, "rate": 0.1, "bogus": 1}`, "bogus"},
		{"zero duration", `{"duration": 0, "rate": 0.1}`, "duration"},
		{"no traffic", `{"duration": 100}`, "no initial traffic"},
		{"negative rate", `{"duration": 100, "rate": -0.1}`, "outside [0, 8]"},
		{"huge rate", `{"duration": 100, "rate": 9}`, "outside [0, 8]"},
		{"bad node rate", `{"duration": 100, "nodeRates": [0.1, 99]}`, "outside [0, 8]"},
		{"event out of order", `{"duration": 100, "rate": 0.1,
			"events": [{"at": 50}, {"at": 50}]}`, "not after"},
		{"event past end", `{"duration": 100, "rate": 0.1,
			"events": [{"at": 100}]}`, "outside run duration"},
		{"event bad rate", `{"duration": 100, "rate": 0.1,
			"events": [{"at": 10, "rate": -1}]}`, "outside [0, 8]"},
		{"burst on > period", `{"duration": 100, "rate": 0.1,
			"events": [{"at": 10, "burst": {"period": 5, "on": 6}}]}`, "burst on"},
		{"burst on without period", `{"duration": 100, "rate": 0.1,
			"events": [{"at": 10, "burst": {"period": 0, "on": 3}}]}`, "period=0"},
		{"bad dir", `{"duration": 100, "rate": 0.1,
			"events": [{"at": 10, "deadLinks": [{"node": 0, "dir": "up"}]}]}`, "unknown direction"},
		{"negative dead node", `{"duration": 100, "rate": 0.1,
			"events": [{"at": 10, "deadRouters": [-1]}]}`, "negative node"},
		{"throttle zero period", `{"duration": 100, "rate": 0.1,
			"events": [{"at": 10, "throttles": [{"node": 0, "dir": "e", "period": 0, "on": 0}]}]}`, "throttle"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := Parse([]byte(c.src))
			if err == nil {
				t.Fatalf("Parse accepted %s", c.src)
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Errorf("error %q does not mention %q", err, c.want)
			}
		})
	}
}

func TestValidateForRejects(t *testing.T) {
	mesh := topology.NewMesh(3, 3) // 9 nodes
	cases := []struct {
		name, src, want string
	}{
		{"nodeRates length", `{"duration": 100, "nodeRates": [0.1, 0.1]}`, "9-node"},
		{"event nodeRates length", `{"duration": 100, "rate": 0.1,
			"events": [{"at": 10, "nodeRates": [0.1]}]}`, "9-node"},
		{"dead link out of range", `{"duration": 100, "rate": 0.1,
			"events": [{"at": 10, "deadLinks": [{"node": 9, "dir": "E"}]}]}`, "names node 9"},
		{"dead router out of range", `{"duration": 100, "rate": 0.1,
			"events": [{"at": 10, "deadRouters": [12]}]}`, "names node 12"},
		{"throttle out of range", `{"duration": 100, "rate": 0.1,
			"events": [{"at": 10, "throttles": [{"node": 9, "dir": "E", "period": 4, "on": 2}]}]}`, "names node 9"},
		{"bad pattern", `{"duration": 100, "rate": 0.1, "pattern": "zipzap"}`, "unknown pattern"},
		{"hotspot out of range", `{"duration": 100, "rate": 0.1, "pattern": "hotspot:42"}`, "hotspot node"},
		{"hotspot bad frac", `{"duration": 100, "rate": 0.1, "pattern": "hotspot:1:1.5"}`, "fraction"},
		{"event bad pattern", `{"duration": 100, "rate": 0.1,
			"events": [{"at": 10, "pattern": "nope"}]}`, "unknown pattern"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s := mustParse(t, c.src)
			err := s.ValidateFor(mesh)
			if err == nil {
				t.Fatalf("ValidateFor accepted %s", c.src)
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Errorf("error %q does not mention %q", err, c.want)
			}
		})
	}
}

func TestTransposeNeedsSquareMesh(t *testing.T) {
	if _, err := ParsePattern("transpose", topology.NewMesh(4, 4)); err != nil {
		t.Errorf("transpose on 4x4: %v", err)
	}
	if _, err := ParsePattern("transpose", topology.NewMesh(4, 2)); err == nil {
		t.Error("transpose on 4x2 accepted; Dest would panic mid-run")
	}
}

func TestParseDir(t *testing.T) {
	for s, want := range map[string]topology.Dir{
		"E": topology.East, "east": topology.East,
		"w": topology.West, "West": topology.West,
		"N": topology.North, "north": topology.North,
		"s": topology.South, "SOUTH": topology.South,
	} {
		got, err := ParseDir(s)
		if err != nil || got != want {
			t.Errorf("ParseDir(%q) = %v, %v; want %v", s, got, err, want)
		}
	}
	for _, s := range []string{"", "L", "local", "northeast", "0"} {
		if _, err := ParseDir(s); err == nil {
			t.Errorf("ParseDir(%q) accepted", s)
		}
	}
}

func TestParsePatternHotspot(t *testing.T) {
	mesh := topology.NewMesh(4, 4)
	p, err := ParsePattern("hotspot:5", mesh)
	if err != nil {
		t.Fatal(err)
	}
	h, ok := p.(traffic.Hotspot)
	if !ok || h.Hot != 5 || h.Frac != 0.5 {
		t.Errorf("hotspot:5 = %+v", p)
	}
	p, err = ParsePattern("hotspot:15:1", mesh)
	if err != nil {
		t.Fatal(err)
	}
	if h := p.(traffic.Hotspot); h.Hot != 15 || h.Frac != 1 {
		t.Errorf("hotspot:15:1 = %+v", h)
	}
	for _, s := range []string{"hotspot:", "hotspot:x", "hotspot:16", "hotspot:-1", "hotspot:3:0", "hotspot:3:nan"} {
		if _, err := ParsePattern(s, mesh); err == nil {
			t.Errorf("ParsePattern(%q) accepted", s)
		}
	}
}

func TestWindow(t *testing.T) {
	cases := []struct {
		now, start, period, on uint64
		open                   bool
		edge                   uint64
	}{
		{100, 100, 10, 3, true, 103},  // window just opened
		{102, 100, 10, 3, true, 103},  // last on-cycle
		{103, 100, 10, 3, false, 110}, // first off-cycle
		{109, 100, 10, 3, false, 110}, // last off-cycle
		{110, 100, 10, 3, true, 113},  // next window
		{100, 100, 10, 10, true, 110}, // always-on duty cycle
		{250, 100, 10, 3, true, 253},  // many periods later
	}
	for _, c := range cases {
		open, edge := window(c.now, c.start, c.period, c.on)
		if open != c.open || edge != c.edge {
			t.Errorf("window(%d, %d, %d, %d) = %v, %d; want %v, %d",
				c.now, c.start, c.period, c.on, open, edge, c.open, c.edge)
		}
	}
}

func TestNaNRateRejected(t *testing.T) {
	if rateOK(math.NaN()) || rateOK(math.Inf(1)) || rateOK(math.Inf(-1)) {
		t.Error("rateOK accepted a non-finite rate")
	}
}

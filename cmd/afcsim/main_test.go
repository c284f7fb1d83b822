package main

import (
	"strings"
	"testing"

	"afcnet/internal/topology"
)

func TestParseMesh(t *testing.T) {
	cases := []struct {
		in   string
		want topology.Mesh // zero with an error
	}{
		{"3x3", topology.NewMesh(3, 3)},
		{"8x4", topology.NewMesh(8, 4)},
		{"2x2", topology.NewMesh(2, 2)},
		{"3x3junk", topology.Mesh{}},
		{"3x3x3", topology.Mesh{}},
		{"3x 3", topology.Mesh{}},
		{" 3x3", topology.Mesh{}},
		{"3x", topology.Mesh{}},
		{"x3", topology.Mesh{}},
		{"3", topology.Mesh{}},
		{"3X3", topology.Mesh{}},
		{"1x3", topology.Mesh{}},
		{"3x-3", topology.Mesh{}},
		{"", topology.Mesh{}},
	}
	for _, c := range cases {
		got, err := parseMesh(c.in)
		if c.want.Width == 0 {
			if err == nil {
				t.Errorf("parseMesh(%q) = %dx%d, want an error", c.in, got.Width, got.Height)
				continue
			}
			// The error names the input, once, and leaves the command
			// prefix to the logger.
			if msg := err.Error(); !strings.Contains(msg, `"`+c.in+`"`) || strings.Contains(msg, "afcsim:") {
				t.Errorf("parseMesh(%q) error %q: want the quoted input and no command prefix", c.in, msg)
			}
			continue
		}
		if err != nil || got != c.want {
			t.Errorf("parseMesh(%q) = %+v, %v; want %+v", c.in, got, err, c.want)
		}
	}
}

package traffic

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"afcnet/internal/network"
	"afcnet/internal/topology"
)

func rng() *rand.Rand { return rand.New(rand.NewSource(17)) }

// TestPatternsNeverReturnSource is the contract every Pattern must obey.
func TestPatternsNeverReturnSource(t *testing.T) {
	mesh := topology.NewMesh(4, 4)
	patterns := []Pattern{
		Uniform{Mesh: mesh},
		Transpose{Mesh: mesh},
		BitComplement{Mesh: mesh},
		Hotspot{Mesh: mesh, Hot: 5, Frac: 0.8},
		NearNeighbor{Mesh: mesh},
		Quadrant{Mesh: mesh},
	}
	r := rng()
	for _, p := range patterns {
		for src := topology.NodeID(0); src < topology.NodeID(mesh.Nodes()); src++ {
			for i := 0; i < 50; i++ {
				d := p.Dest(src, r)
				if d == src {
					t.Fatalf("%T returned the source %d", p, src)
				}
				if !mesh.Contains(d) {
					t.Fatalf("%T returned out-of-mesh node %d", p, d)
				}
			}
		}
	}
}

func TestUniformCoversAllDestinations(t *testing.T) {
	mesh := topology.NewMesh(3, 3)
	u := Uniform{Mesh: mesh}
	r := rng()
	seen := map[topology.NodeID]int{}
	const draws = 9000
	for i := 0; i < draws; i++ {
		seen[u.Dest(0, r)]++
	}
	if len(seen) != mesh.Nodes()-1 {
		t.Fatalf("uniform covered %d destinations, want %d", len(seen), mesh.Nodes()-1)
	}
	want := float64(draws) / float64(mesh.Nodes()-1)
	for d, n := range seen {
		if math.Abs(float64(n)-want) > want/2 {
			t.Errorf("destination %d drawn %d times, expected ~%.0f", d, n, want)
		}
	}
}

func TestTransposeMapsCoordinates(t *testing.T) {
	mesh := topology.NewMesh(4, 4)
	tr := Transpose{Mesh: mesh}
	r := rng()
	src := mesh.Node(1, 3)
	if got := tr.Dest(src, r); got != mesh.Node(3, 1) {
		t.Errorf("transpose(1,3) = %d, want %d", got, mesh.Node(3, 1))
	}
	// Diagonal nodes fall back to uniform, never self.
	diag := mesh.Node(2, 2)
	for i := 0; i < 20; i++ {
		if tr.Dest(diag, r) == diag {
			t.Fatal("transpose returned self for diagonal node")
		}
	}
}

func TestBitComplement(t *testing.T) {
	mesh := topology.NewMesh(4, 4)
	bc := BitComplement{Mesh: mesh}
	if got := bc.Dest(mesh.Node(0, 0), rng()); got != mesh.Node(3, 3) {
		t.Errorf("bitcomp(0,0) = %d, want %d", got, mesh.Node(3, 3))
	}
}

func TestHotspotBias(t *testing.T) {
	mesh := topology.NewMesh(3, 3)
	h := Hotspot{Mesh: mesh, Hot: 4, Frac: 0.7}
	r := rng()
	hits := 0
	const draws = 5000
	for i := 0; i < draws; i++ {
		if h.Dest(0, r) == 4 {
			hits++
		}
	}
	frac := float64(hits) / draws
	// 0.7 direct plus 1/8 of the uniform remainder
	want := 0.7 + 0.3/8
	if math.Abs(frac-want) > 0.05 {
		t.Errorf("hotspot fraction = %.3f, want ~%.3f", frac, want)
	}
}

func TestNearNeighborDistanceOne(t *testing.T) {
	mesh := topology.NewMesh(5, 5)
	nn := NearNeighbor{Mesh: mesh}
	r := rng()
	f := func(srcRaw uint8) bool {
		src := topology.NodeID(int(srcRaw) % mesh.Nodes())
		d := nn.Dest(src, r)
		return mesh.Distance(src, d) == 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500, Rand: rng()}); err != nil {
		t.Error(err)
	}
}

func TestQuadrantStaysLocal(t *testing.T) {
	mesh := topology.NewMesh(8, 8)
	q := Quadrant{Mesh: mesh}
	r := rng()
	for src := topology.NodeID(0); src < topology.NodeID(mesh.Nodes()); src++ {
		for i := 0; i < 20; i++ {
			d := q.Dest(src, r)
			if QuadrantIndex(mesh, d) != QuadrantIndex(mesh, src) {
				t.Fatalf("quadrant traffic escaped: %d (q%d) -> %d (q%d)",
					src, QuadrantIndex(mesh, src), d, QuadrantIndex(mesh, d))
			}
		}
	}
}

func TestQuadrantIndex(t *testing.T) {
	mesh := topology.NewMesh(8, 8)
	cases := []struct {
		x, y, q int
	}{
		{0, 0, 0}, {3, 3, 0}, {4, 0, 1}, {7, 3, 1},
		{0, 4, 2}, {3, 7, 2}, {4, 4, 3}, {7, 7, 3},
	}
	for _, c := range cases {
		if got := QuadrantIndex(mesh, mesh.Node(c.x, c.y)); got != c.q {
			t.Errorf("QuadrantIndex(%d,%d) = %d, want %d", c.x, c.y, got, c.q)
		}
	}
}

// TestGeneratorOfferedRate checks that the Bernoulli generator offers
// approximately the configured flit rate.
func TestGeneratorOfferedRate(t *testing.T) {
	net := network.New(network.Config{Kind: network.Backpressured, Seed: 5})
	const rate = 0.2
	gen := NewGenerator(net, Config{Rate: rate}, net.RandStream)
	net.AddTicker(gen)
	const cycles = 30_000
	net.Run(cycles)
	offered := float64(gen.OfferedFlits()) / float64(net.Nodes()) / cycles
	if math.Abs(offered-rate) > 0.03 {
		t.Errorf("offered rate = %.3f, want ~%.2f", offered, rate)
	}
}

func TestGeneratorPerNodeRates(t *testing.T) {
	net := network.New(network.Config{Kind: network.Backpressured, Seed: 6})
	rates := make([]float64, net.Nodes())
	rates[3] = 0.3 // only node 3 injects
	gen := NewGenerator(net, Config{NodeRates: rates}, net.RandStream)
	net.AddTicker(gen)
	net.Run(5000)
	for i := 0; i < net.Nodes(); i++ {
		n := net.NI(topology.NodeID(i))
		if i == 3 && n.CreatedPackets() == 0 {
			t.Error("node 3 created no packets")
		}
		if i != 3 && n.CreatedPackets() != 0 {
			t.Errorf("node %d created packets with zero rate", i)
		}
	}
}

func TestGeneratorStop(t *testing.T) {
	net := network.New(network.Config{Kind: network.Backpressured, Seed: 7})
	gen := NewGenerator(net, Config{Rate: 0.3}, net.RandStream)
	net.AddTicker(gen)
	net.Run(2000)
	gen.Stop()
	before := gen.OfferedFlits()
	net.Run(2000)
	if gen.OfferedFlits() != before {
		t.Error("generator kept offering after Stop")
	}
	if !net.RunUntil(net.Drained, 100_000) {
		t.Error("network did not drain after Stop")
	}
}

func TestMeanPacketLen(t *testing.T) {
	net := network.New(network.Config{Kind: network.Backpressured, Seed: 8})
	gen := NewGenerator(net, Config{Rate: 0.1, DataFraction: 0.25}, net.RandStream)
	want := 0.25*17 + 0.75*1
	if got := gen.MeanPacketLen(); math.Abs(got-want) > 1e-9 {
		t.Errorf("MeanPacketLen = %g, want %g", got, want)
	}
}

// TestPatternsSmallAndOddMeshes drives every pattern over meshes whose
// quadrants or symmetry points degenerate (2-wide, odd, non-square):
// destinations must stay in-mesh and never equal the source. This pins
// the Quadrant fix (rng.Intn(0) panic / infinite redraw on one-node
// quadrants, out-of-range Node on clipped odd-mesh quadrants) and the
// Uniform guard behind it.
func TestPatternsSmallAndOddMeshes(t *testing.T) {
	dims := [][2]int{{2, 2}, {2, 3}, {3, 2}, {3, 3}, {5, 3}, {3, 5}, {5, 5}, {8, 8}}
	for _, wh := range dims {
		mesh := topology.NewMesh(wh[0], wh[1])
		patterns := []Pattern{
			Uniform{Mesh: mesh},
			BitComplement{Mesh: mesh},
			Hotspot{Mesh: mesh, Hot: topology.NodeID(mesh.Nodes() - 1), Frac: 0.7},
			NearNeighbor{Mesh: mesh},
			Quadrant{Mesh: mesh},
		}
		if wh[0] == wh[1] {
			// Transpose is only defined on square meshes.
			patterns = append(patterns, Transpose{Mesh: mesh})
		}
		r := rng()
		for _, p := range patterns {
			for src := topology.NodeID(0); src < topology.NodeID(mesh.Nodes()); src++ {
				for i := 0; i < 100; i++ {
					d := p.Dest(src, r)
					if !mesh.Contains(d) {
						t.Fatalf("%dx%d %T: out-of-mesh destination %d from %d",
							wh[0], wh[1], p, d, src)
					}
					if d == src {
						t.Fatalf("%dx%d %T: returned the source %d", wh[0], wh[1], p, src)
					}
				}
			}
		}
	}
}

// TestQuadrantDegenerateFallsBackToUniform: on a 3x3 mesh every
// quadrant clips to a single node, so Quadrant must behave exactly like
// Uniform rather than spin or panic.
func TestQuadrantDegenerateFallsBackToUniform(t *testing.T) {
	mesh := topology.NewMesh(3, 3)
	q := Quadrant{Mesh: mesh}
	r := rng()
	seen := map[topology.NodeID]bool{}
	for i := 0; i < 2000; i++ {
		seen[q.Dest(4, r)] = true
	}
	if len(seen) != mesh.Nodes()-1 {
		t.Errorf("degenerate quadrant covered %d destinations, want %d (uniform fallback)",
			len(seen), mesh.Nodes()-1)
	}
}

// TestNodeRatesLengthValidated: a NodeRates slice whose length does not
// match the node count must be rejected at construction, not surface as
// an index panic cycles later inside Tick.
func TestNodeRatesLengthValidated(t *testing.T) {
	net := network.New(network.Config{Kind: network.Backpressured, Seed: 9})
	bad := make([]float64, net.Nodes()+2)
	wantPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s accepted a %d-entry NodeRates on a %d-node network",
					name, len(bad), net.Nodes())
			}
		}()
		fn()
	}
	wantPanic("NewGenerator", func() {
		NewGenerator(net, Config{NodeRates: bad}, net.RandStream)
	})
	gen := NewGenerator(net, Config{Rate: 0.1}, net.RandStream)
	wantPanic("Reattach", func() {
		gen.Reattach(Config{NodeRates: bad})
	})
	wantPanic("SetNodeRates", func() {
		gen.SetNodeRates(bad)
	})
}

package topology

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestCoordRoundTrip(t *testing.T) {
	m := NewMesh(5, 3)
	for n := NodeID(0); n < NodeID(m.Nodes()); n++ {
		x, y := m.Coord(n)
		if got := m.Node(x, y); got != n {
			t.Errorf("Node(Coord(%d)) = %d", n, got)
		}
		if x < 0 || x >= m.Width || y < 0 || y >= m.Height {
			t.Errorf("Coord(%d) = (%d,%d) out of range", n, x, y)
		}
	}
}

func TestNeighborSymmetry(t *testing.T) {
	m := NewMesh(4, 4)
	for n := NodeID(0); n < NodeID(m.Nodes()); n++ {
		for d := Dir(0); d < NumDirs; d++ {
			nb, ok := m.Neighbor(n, d)
			if !ok {
				continue
			}
			back, ok2 := m.Neighbor(nb, d.Opposite())
			if !ok2 || back != n {
				t.Errorf("Neighbor(%d,%s)=%d but Neighbor(%d,%s)=%d,%v",
					n, d, nb, nb, d.Opposite(), back, ok2)
			}
		}
	}
}

func TestNeighborBoundaries(t *testing.T) {
	m := NewMesh(3, 3)
	cases := []struct {
		n  NodeID
		d  Dir
		ok bool
	}{
		{0, West, false}, {0, North, false}, {0, East, true}, {0, South, true},
		{8, East, false}, {8, South, false}, {8, West, true}, {8, North, true},
		{4, East, true}, {4, West, true}, {4, North, true}, {4, South, true},
	}
	for _, c := range cases {
		if _, ok := m.Neighbor(c.n, c.d); ok != c.ok {
			t.Errorf("Neighbor(%d, %s) ok = %v, want %v", c.n, c.d, ok, c.ok)
		}
	}
	if _, ok := m.Neighbor(4, Local); ok {
		t.Error("Neighbor(4, Local) should not exist")
	}
}

func TestPositionClasses(t *testing.T) {
	m := NewMesh(3, 3)
	want := map[NodeID]Position{
		0: Corner, 2: Corner, 6: Corner, 8: Corner,
		1: Edge, 3: Edge, 5: Edge, 7: Edge,
		4: Center,
	}
	for n, p := range want {
		if got := m.Position(n); got != p {
			t.Errorf("Position(%d) = %s, want %s", n, got, p)
		}
	}
}

func TestDegreeMatchesPosition(t *testing.T) {
	m := NewMesh(8, 8)
	for n := NodeID(0); n < NodeID(m.Nodes()); n++ {
		deg := m.Degree(n)
		pos := m.Position(n)
		switch pos {
		case Corner:
			if deg != 2 {
				t.Errorf("corner %d degree %d", n, deg)
			}
		case Edge:
			if deg != 3 {
				t.Errorf("edge %d degree %d", n, deg)
			}
		case Center:
			if deg != 4 {
				t.Errorf("center %d degree %d", n, deg)
			}
		}
	}
}

// TestDORReachesDestination follows DORNext hop by hop and checks it
// reaches the destination in exactly Distance() hops, moving X-first.
func TestDORReachesDestination(t *testing.T) {
	m := NewMesh(4, 5)
	for s := NodeID(0); s < NodeID(m.Nodes()); s++ {
		for d := NodeID(0); d < NodeID(m.Nodes()); d++ {
			cur := s
			hops := 0
			movedY := false
			for cur != d {
				dir := m.DORNext(cur, d)
				if dir == Local {
					t.Fatalf("DORNext(%d,%d) = Local before arrival", cur, d)
				}
				if dir == North || dir == South {
					movedY = true
				} else if movedY {
					t.Fatalf("route %d->%d moved X after Y (not DOR)", s, d)
				}
				nxt, ok := m.Neighbor(cur, dir)
				if !ok {
					t.Fatalf("DORNext(%d,%d) = %s walks off mesh", cur, d, dir)
				}
				cur = nxt
				hops++
				if hops > m.Width+m.Height {
					t.Fatalf("route %d->%d does not terminate", s, d)
				}
			}
			if hops != m.Distance(s, d) {
				t.Errorf("route %d->%d took %d hops, Manhattan %d", s, d, hops, m.Distance(s, d))
			}
			if m.DORNext(d, d) != Local {
				t.Errorf("DORNext(%d,%d) != Local", d, d)
			}
		}
	}
}

// TestProductiveDirsReduceDistance is a property test: every direction
// returned by ProductiveDirs strictly reduces the Manhattan distance, and
// the set is empty only at the destination.
func TestProductiveDirsReduceDistance(t *testing.T) {
	m := NewMesh(6, 6)
	f := func(si, di uint8) bool {
		s := NodeID(int(si) % m.Nodes())
		d := NodeID(int(di) % m.Nodes())
		dirs := m.ProductiveDirs(s, d, nil)
		if s == d {
			return len(dirs) == 0
		}
		if len(dirs) == 0 {
			return false
		}
		for _, dir := range dirs {
			nb, ok := m.Neighbor(s, dir)
			if !ok || m.Distance(nb, d) != m.Distance(s, d)-1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}

func TestDistanceProperties(t *testing.T) {
	m := NewMesh(7, 4)
	f := func(ai, bi uint8) bool {
		a := NodeID(int(ai) % m.Nodes())
		b := NodeID(int(bi) % m.Nodes())
		// symmetry, identity, triangle via node 0
		if m.Distance(a, b) != m.Distance(b, a) {
			return false
		}
		if (m.Distance(a, b) == 0) != (a == b) {
			return false
		}
		return m.Distance(a, b) <= m.Distance(a, 0)+m.Distance(0, b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000, Rand: rand.New(rand.NewSource(2))}); err != nil {
		t.Error(err)
	}
}

func TestOpposite(t *testing.T) {
	pairs := [][2]Dir{{East, West}, {North, South}}
	for _, p := range pairs {
		if p[0].Opposite() != p[1] || p[1].Opposite() != p[0] {
			t.Errorf("Opposite broken for %s/%s", p[0], p[1])
		}
	}
	if Local.Opposite() != Local {
		t.Error("Opposite(Local) != Local")
	}
}

func TestNewMeshPanicsOnTinyDimensions(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewMesh(1, 3) did not panic")
		}
	}()
	NewMesh(1, 3)
}

func TestContains(t *testing.T) {
	m := NewMesh(3, 3)
	if !m.Contains(0) || !m.Contains(8) {
		t.Error("valid nodes rejected")
	}
	if m.Contains(-1) || m.Contains(9) {
		t.Error("invalid nodes accepted")
	}
}

// TestNewMeshValidation is the table-driven guard against degenerate
// meshes: non-positive or sub-minimum dimensions must panic instead of
// silently constructing a mesh whose direction arithmetic is undefined.
func TestNewMeshValidation(t *testing.T) {
	cases := []struct {
		name   string
		w, h   int
		panics bool
	}{
		{"zero both", 0, 0, true},
		{"zero width", 0, 4, true},
		{"zero height", 4, 0, true},
		{"negative width", -3, 4, true},
		{"negative height", 4, -1, true},
		{"one by five", 1, 5, true},
		{"five by one", 5, 1, true},
		{"minimum", 2, 2, false},
		{"paper mesh", 3, 3, false},
		{"large radix", 16, 16, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			defer func() {
				if r := recover(); (r != nil) != c.panics {
					t.Errorf("NewMesh(%d,%d) panic = %v, want panic %v", c.w, c.h, r, c.panics)
				}
			}()
			m := NewMesh(c.w, c.h)
			if !c.panics && m.Nodes() != c.w*c.h {
				t.Errorf("NewMesh(%d,%d).Nodes() = %d", c.w, c.h, m.Nodes())
			}
		})
	}
}

// TestNodeValidation checks Mesh.Node panics on out-of-range coordinates
// instead of aliasing them onto a valid but wrong NodeID.
func TestNodeValidation(t *testing.T) {
	m := NewMesh(4, 3)
	cases := []struct {
		name   string
		x, y   int
		panics bool
	}{
		{"origin", 0, 0, false},
		{"last", 3, 2, false},
		{"x too big", 4, 0, true},
		{"y too big", 0, 3, true},
		{"x negative", -1, 1, true},
		{"y negative", 1, -1, true},
		{"wraps to valid id", 4, 1, true}, // y*W+x = 8 is a valid NodeID of the wrong node
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			defer func() {
				if r := recover(); (r != nil) != c.panics {
					t.Errorf("Node(%d,%d) panic = %v, want panic %v", c.x, c.y, r, c.panics)
				}
			}()
			n := m.Node(c.x, c.y)
			if !c.panics && !m.Contains(n) {
				t.Errorf("Node(%d,%d) = %d not contained", c.x, c.y, n)
			}
		})
	}
}

// TestRoutesMatchDOR checks, for every (cur, dst) pair of each mesh
// shape, that the shared route state gives exactly what DORNext and
// ProductiveDirs compute, in order, and that each neighbor list holds
// exactly the directions Neighbor wires, in ascending order.
func TestRoutesMatchDOR(t *testing.T) {
	for _, shape := range [][2]int{{2, 2}, {2, 9}, {9, 2}, {5, 4}, {8, 8}, {16, 16}, {32, 32}} {
		m := NewMesh(shape[0], shape[1])
		t.Run(fmt.Sprintf("%dx%d", m.Width, m.Height), func(t *testing.T) {
			tables := m.NewTables()
			if tables.Mesh() != m {
				t.Fatalf("Tables.Mesh() = %v, want %v", tables.Mesh(), m)
			}
			var buf [2]Dir
			for cur := NodeID(0); cur < NodeID(m.Nodes()); cur++ {
				rt := tables.Routes(cur)
				for dst := NodeID(0); dst < NodeID(m.Nodes()); dst++ {
					if got, want := rt.DOR(dst), m.DORNext(cur, dst); got != want {
						t.Fatalf("Routes(%d).DOR(%d) = %s, want %s", cur, dst, got, want)
					}
					ps := rt.Prod(dst)
					if want := m.ProductiveDirs(cur, dst, buf[:0]); !slices.Equal(ps.D[:ps.N], want) {
						t.Fatalf("Routes(%d).Prod(%d) = %v, want %v", cur, dst, ps.D[:ps.N], want)
					}
				}
				var wantNbr []Dir
				for d := Dir(0); d < NumDirs; d++ {
					if _, ok := m.Neighbor(cur, d); ok {
						wantNbr = append(wantNbr, d)
					}
				}
				if got := tables.Neighbors(cur); !slices.Equal(got, wantNbr) {
					t.Fatalf("Neighbors(%d) = %v, want %v", cur, got, wantNbr)
				}
			}
		})
	}
}

// TestNewTablesRejectsWideMesh checks that NewTables refuses a mesh whose
// coordinates the route state cannot hold, instead of truncating them
// onto other nodes' coordinates.
func TestNewTablesRejectsWideMesh(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewTables on a mesh wider than MaxDim did not panic")
		}
	}()
	Mesh{Width: MaxDim + 1, Height: 2}.NewTables()
}

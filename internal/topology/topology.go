// Package topology models the 2D-mesh topology used by the AFC paper:
// node coordinates, port directions, dimension-ordered (XY) routing and the
// corner/edge/center position classes that parameterize AFC's local
// contention thresholds.
package topology

import "fmt"

// NodeID identifies a node (router + network interface) in a mesh.
// Nodes are numbered row-major: id = y*Width + x.
type NodeID int

// Dir is a router port direction. The four mesh directions are followed by
// Local, the port that connects the router to its network interface.
type Dir uint8

// Port directions. NumDirs counts only the mesh directions; NumPorts
// includes Local.
const (
	East Dir = iota
	West
	North
	South
	Local

	NumDirs  = 4
	NumPorts = 5
)

// String returns the conventional single-letter name of the direction.
func (d Dir) String() string {
	switch d {
	case East:
		return "E"
	case West:
		return "W"
	case North:
		return "N"
	case South:
		return "S"
	case Local:
		return "L"
	}
	return fmt.Sprintf("Dir(%d)", uint8(d))
}

// Opposite returns the direction a flit sent on d arrives from at the
// neighboring router. Opposite(Local) is Local.
func (d Dir) Opposite() Dir {
	switch d {
	case East:
		return West
	case West:
		return East
	case North:
		return South
	case South:
		return North
	}
	return Local
}

// Position classifies a router by its location in the mesh. AFC scales its
// contention thresholds by position because corner and edge routers have
// fewer ports (Section III-B of the paper).
type Position uint8

// Position classes.
const (
	Corner Position = iota
	Edge
	Center
)

// String implements fmt.Stringer.
func (p Position) String() string {
	switch p {
	case Corner:
		return "corner"
	case Edge:
		return "edge"
	case Center:
		return "center"
	}
	return fmt.Sprintf("Position(%d)", uint8(p))
}

// Mesh is a Width x Height 2D mesh.
type Mesh struct {
	Width  int
	Height int
}

// NewMesh returns a mesh of the given dimensions. It panics if either
// dimension is smaller than 2, since a mesh needs at least two nodes per
// dimension for the direction arithmetic to be meaningful.
func NewMesh(width, height int) Mesh {
	if width < 2 || height < 2 {
		panic(fmt.Sprintf("topology: mesh dimensions must be >= 2, got %dx%d", width, height))
	}
	return Mesh{Width: width, Height: height}
}

// Nodes returns the number of nodes in the mesh.
func (m Mesh) Nodes() int { return m.Width * m.Height }

// Coord returns the (x, y) coordinate of node n.
func (m Mesh) Coord(n NodeID) (x, y int) {
	return int(n) % m.Width, int(n) / m.Width
}

// Node returns the NodeID at coordinate (x, y). It panics when the
// coordinate lies outside the mesh: the row-major arithmetic would
// otherwise alias an out-of-range coordinate onto a valid but wrong node
// and the error would surface much later as misrouted traffic.
func (m Mesh) Node(x, y int) NodeID {
	if x < 0 || x >= m.Width || y < 0 || y >= m.Height {
		panic(fmt.Sprintf("topology: coordinate (%d,%d) outside %dx%d mesh", x, y, m.Width, m.Height))
	}
	return NodeID(y*m.Width + x)
}

// Contains reports whether n is a valid node of the mesh.
func (m Mesh) Contains(n NodeID) bool {
	return n >= 0 && int(n) < m.Nodes()
}

// Neighbor returns the node adjacent to n in direction d, and whether such a
// neighbor exists (it does not at mesh boundaries, and never for Local).
func (m Mesh) Neighbor(n NodeID, d Dir) (NodeID, bool) {
	x, y := m.Coord(n)
	switch d {
	case East:
		x++
	case West:
		x--
	case North:
		y--
	case South:
		y++
	default:
		return 0, false
	}
	if x < 0 || x >= m.Width || y < 0 || y >= m.Height {
		return 0, false
	}
	return m.Node(x, y), true
}

// Degree returns the number of mesh links at node n (2 for corners, 3 for
// edges, 4 for center nodes).
func (m Mesh) Degree(n NodeID) int {
	deg := 0
	for d := Dir(0); d < NumDirs; d++ {
		if _, ok := m.Neighbor(n, d); ok {
			deg++
		}
	}
	return deg
}

// Position classifies node n as Corner, Edge or Center.
func (m Mesh) Position(n NodeID) Position {
	switch m.Degree(n) {
	case 2:
		return Corner
	case 3:
		return Edge
	default:
		return Center
	}
}

// Distance returns the Manhattan (hop) distance between a and b.
func (m Mesh) Distance(a, b NodeID) int {
	ax, ay := m.Coord(a)
	bx, by := m.Coord(b)
	return abs(ax-bx) + abs(ay-by)
}

// DORNext returns the next-hop direction under dimension-ordered (XY)
// routing from cur toward dst. It returns Local when cur == dst.
// XY routing fully resolves the X offset before moving in Y, which is
// provably deadlock-free on a mesh.
func (m Mesh) DORNext(cur, dst NodeID) Dir {
	cx, cy := m.Coord(cur)
	dx, dy := m.Coord(dst)
	switch {
	case dx > cx:
		return East
	case dx < cx:
		return West
	case dy > cy:
		return South
	case dy < cy:
		return North
	default:
		return Local
	}
}

// ProductiveDirs appends to buf the directions that strictly reduce the
// distance from cur to dst and returns the extended slice. It returns buf
// unchanged when cur == dst (the productive "direction" is then Local,
// which the caller handles as ejection). The order is X-first to bias
// deflection routers toward DOR-like paths.
func (m Mesh) ProductiveDirs(cur, dst NodeID, buf []Dir) []Dir {
	cx, cy := m.Coord(cur)
	dx, dy := m.Coord(dst)
	switch {
	case dx > cx:
		buf = append(buf, East)
	case dx < cx:
		buf = append(buf, West)
	}
	switch {
	case dy > cy:
		buf = append(buf, South)
	case dy < cy:
		buf = append(buf, North)
	}
	return buf
}

// ProdSet is a packed productive-direction set: at most two directions
// exist on a 2D mesh (one per dimension), stored in preference order.
type ProdSet struct {
	N uint8
	D [2]Dir
}

// RouteTable holds one source node's per-destination routing decisions,
// precomputed so router hot paths replace DORNext's division arithmetic
// with a single table load. Both slices are indexed by destination NodeID
// and hold exactly what DORNext / ProductiveDirs return.
type RouteTable struct {
	DOR  []Dir
	Prod []ProdSet
}

// Tables holds every node's route table and neighbor-direction list in
// four contiguous backing arrays, built once per network and aliased by
// all routers (and their deflectors). The per-source layout is row-major
// — source n's destinations occupy [n*Nodes, (n+1)*Nodes) — so the
// memory cost is one O(N²) block total instead of one per consumer:
// before Tables, every AFC router built two private copies (its own DOR
// table plus its deflector's full table), which at 64×64 would be
// gigabytes. The slices handed out are three-index subslices of the
// backing, so appends by a buggy caller fail loudly instead of
// corrupting a neighbor's table.
type Tables struct {
	mesh   Mesh
	dor    []Dir
	prod   []ProdSet
	nbr    []Dir
	nbrOff []int32
}

// NewTables precomputes the shared route tables for every node of the
// mesh.
func (m Mesh) NewTables() *Tables {
	nodes := m.Nodes()
	t := &Tables{
		mesh:   m,
		dor:    make([]Dir, nodes*nodes),
		prod:   make([]ProdSet, nodes*nodes),
		nbrOff: make([]int32, nodes+1),
	}
	var buf [2]Dir
	for cur := 0; cur < nodes; cur++ {
		base := cur * nodes
		for n := 0; n < nodes; n++ {
			dst := NodeID(n)
			t.dor[base+n] = m.DORNext(NodeID(cur), dst)
			dirs := m.ProductiveDirs(NodeID(cur), dst, buf[:0])
			t.prod[base+n].N = uint8(len(dirs))
			copy(t.prod[base+n].D[:], dirs)
		}
		for d := Dir(0); d < NumDirs; d++ {
			if _, ok := m.Neighbor(NodeID(cur), d); ok {
				t.nbr = append(t.nbr, d)
			}
		}
		t.nbrOff[cur+1] = int32(len(t.nbr))
	}
	return t
}

// Mesh returns the mesh the tables were built for.
func (t *Tables) Mesh() Mesh { return t.mesh }

// Routes returns cur's route table as views into the shared backing,
// storage aliased across every caller.
func (t *Tables) Routes(cur NodeID) RouteTable {
	nodes := t.mesh.Nodes()
	lo, hi := int(cur)*nodes, (int(cur)+1)*nodes
	return RouteTable{
		DOR:  t.dor[lo:hi:hi],
		Prod: t.prod[lo:hi:hi],
	}
}

// Neighbors returns the wired mesh directions at cur in ascending Dir
// order — the order every router kind enumerates its ports — as a view
// into the shared backing.
func (t *Tables) Neighbors(cur NodeID) []Dir {
	lo, hi := t.nbrOff[cur], t.nbrOff[cur+1]
	return t.nbr[lo:hi:hi]
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

package router

import (
	"math/rand"
	"testing"
	"testing/quick"

	"afcnet/internal/flit"
	"afcnet/internal/topology"
)

func TestRoundRobinFairness(t *testing.T) {
	rr := newRoundRobin(3)
	all := func(int) bool { return true }
	got := []int{rr.Pick(all), rr.Pick(all), rr.Pick(all), rr.Pick(all)}
	want := []int{0, 1, 2, 0}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("grants %v, want %v", got, want)
		}
	}
}

func TestRoundRobinSkipsIneligible(t *testing.T) {
	rr := newRoundRobin(4)
	only2 := func(i int) bool { return i == 2 }
	for k := 0; k < 3; k++ {
		if got := rr.Pick(only2); got != 2 {
			t.Fatalf("pick = %d, want 2", got)
		}
	}
	if got := rr.Pick(func(int) bool { return false }); got != -1 {
		t.Fatalf("pick with none eligible = %d, want -1", got)
	}
}

func TestRoundRobinStartsAfterLastGrant(t *testing.T) {
	rr := newRoundRobin(4)
	all := func(int) bool { return true }
	rr.Pick(all) // grants 0
	// 1 should be favored now even if 0 also eligible
	if got := rr.Pick(all); got != 1 {
		t.Fatalf("second grant = %d, want 1", got)
	}
}

// TestPickFirstMatchesPick: for every width n in 1..64, from random
// pointers and over random masks (dense, sparse, single-bit and empty),
// PickFirst grants the same slot as Pick with the predicate "bit i is
// set" and leaves the arbiter in the same state.
func TestPickFirstMatchesPick(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for n := 1; n <= 64; n++ {
		all := ^uint64(0)
		if n < 64 {
			all = 1<<uint(n) - 1
		}
		for trial := 0; trial < 500; trial++ {
			var mask uint64
			switch trial % 4 {
			case 0:
				mask = rng.Uint64()
			case 1:
				mask = rng.Uint64() & rng.Uint64() & rng.Uint64()
			case 2:
				mask = 1 << uint(rng.Intn(n))
			case 3:
				if trial%8 == 3 {
					mask = 0
				} else {
					mask = all
				}
			}
			mask &= all
			arb := newRoundRobin(n)
			arb.Advance(uint64(rng.Intn(n)))
			ref := *arb
			got := arb.PickFirst(mask)
			want := ref.Pick(func(i int) bool { return mask>>uint(i)&1 != 0 })
			if got != want || *arb != ref {
				t.Fatalf("n=%d mask=%#x: PickFirst granted %d leaving %+v, Pick granted %d leaving %+v",
					n, mask, got, *arb, want, ref)
			}
		}
	}
}

func newRoundRobin(n int) *RoundRobin {
	r := &RoundRobin{}
	r.Init(n)
	return r
}

// newDeflector initializes a deflector at node the way the routers do,
// with its route table a view into the mesh's shared tables.
func newDeflector(mesh topology.Mesh, node topology.NodeID, policy DeflectPolicy, rng *rand.Rand) *Deflector {
	d := &Deflector{}
	d.Init(node, policy, rng, mesh.NewTables().Routes(node))
	return d
}

func mkFlit(id uint64, dst topology.NodeID, vn flit.VN) *flit.Flit {
	return &flit.Flit{PacketID: id, Len: 1, Dst: dst, VN: vn}
}

func allUsable(mesh topology.Mesh, node topology.NodeID) func(*flit.Flit, topology.Dir) bool {
	return func(_ *flit.Flit, d topology.Dir) bool {
		_, ok := mesh.Neighbor(node, d)
		return ok
	}
}

// TestDeflectorAlwaysAssigns is the defining deflection invariant: with
// unrestricted outputs, every flit receives some port, for any number of
// flits up to the node degree plus ejections.
func TestDeflectorAlwaysAssigns(t *testing.T) {
	mesh := topology.NewMesh(3, 3)
	for _, policy := range []DeflectPolicy{PolicyRandom, PolicyOldest} {
		for node := topology.NodeID(0); node < 9; node++ {
			d := newDeflector(mesh, node, policy, rand.New(rand.NewSource(int64(node))))
			deg := mesh.Degree(node)
			// worst case: deg network flits, none destined here
			flits := make([]*flit.Flit, deg)
			for i := range flits {
				dst := topology.NodeID((int(node) + i + 1) % 9)
				if dst == node {
					dst = (dst + 1) % 9
				}
				flits[i] = mkFlit(uint64(i), dst, flit.VNReq)
			}
			for trial := 0; trial < 50; trial++ {
				as := d.Assign(flits, allUsable(mesh, node), 1)
				seen := map[topology.Dir]bool{}
				for i, a := range as {
					if !a.OK {
						t.Fatalf("node %d policy %s: flit %d unassigned", node, policy, i)
					}
					if a.Dir == topology.Local {
						t.Fatalf("node %d: non-destined flit ejected", node)
					}
					if seen[a.Dir] {
						t.Fatalf("node %d: output %s double-assigned", node, a.Dir)
					}
					seen[a.Dir] = true
				}
			}
		}
	}
}

func TestDeflectorEjectsAtMostWidth(t *testing.T) {
	mesh := topology.NewMesh(3, 3)
	node := topology.NodeID(4)
	d := newDeflector(mesh, node, PolicyRandom, rand.New(rand.NewSource(1)))
	flits := []*flit.Flit{
		mkFlit(1, node, flit.VNReq), mkFlit(2, node, flit.VNReq),
		mkFlit(3, node, flit.VNReq), mkFlit(4, node, flit.VNReq),
	}
	for _, width := range []int{1, 2} {
		as := d.Assign(flits, allUsable(mesh, node), width)
		ejected, deflected := 0, 0
		for _, a := range as {
			if !a.OK {
				t.Fatal("unassigned flit")
			}
			if a.Dir == topology.Local {
				ejected++
			} else if !a.Deflected {
				t.Error("non-ejected destination flit must count as deflected")
			} else {
				deflected++
			}
		}
		if ejected != width {
			t.Errorf("width %d: ejected %d", width, ejected)
		}
		if deflected != len(flits)-width {
			t.Errorf("width %d: deflected %d", width, deflected)
		}
	}
}

func TestDeflectorPrefersProductiveDirs(t *testing.T) {
	mesh := topology.NewMesh(3, 3)
	d := newDeflector(mesh, 0, PolicyRandom, rand.New(rand.NewSource(2)))
	// single flit, no contention: must take the DOR direction (East for
	// 0 -> 2) and not be a deflection
	f := mkFlit(1, 2, flit.VNReq)
	for i := 0; i < 20; i++ {
		a := d.Assign([]*flit.Flit{f}, allUsable(mesh, 0), 1)[0]
		if !a.OK || a.Dir != topology.East || a.Deflected {
			t.Fatalf("assignment = %+v, want East productive", a)
		}
	}
}

func TestDeflectorOldestPriority(t *testing.T) {
	mesh := topology.NewMesh(3, 3)
	d := newDeflector(mesh, 0, PolicyOldest, rand.New(rand.NewSource(3)))
	old := &flit.Flit{PacketID: 1, Len: 1, Dst: 2, VN: flit.VNReq, InjectedAt: 5}
	young := &flit.Flit{PacketID: 2, Len: 1, Dst: 2, VN: flit.VNReq, InjectedAt: 50}
	// Both want East; the old one must get it every time.
	for i := 0; i < 20; i++ {
		as := d.Assign([]*flit.Flit{young, old}, allUsable(mesh, 0), 1)
		if as[1].Dir != topology.East || as[1].Deflected {
			t.Fatalf("oldest flit lost its productive port: %+v", as[1])
		}
		if !as[0].Deflected {
			t.Fatalf("young flit should be deflected: %+v", as[0])
		}
	}
}

// TestDeflectorRespectsMasking: with restricted availability, assigned
// ports are always from the usable set and OK=false appears only when the
// usable set is exhausted.
func TestDeflectorRespectsMasking(t *testing.T) {
	mesh := topology.NewMesh(3, 3)
	node := topology.NodeID(4)
	f := func(mask uint8, nf uint8) bool {
		rng := rand.New(rand.NewSource(int64(mask)*31 + int64(nf)))
		d := newDeflector(mesh, node, PolicyRandom, rng)
		usable := func(_ *flit.Flit, dir topology.Dir) bool {
			return mask&(1<<uint(dir)) != 0
		}
		nFlits := int(nf)%4 + 1
		flits := make([]*flit.Flit, nFlits)
		for i := range flits {
			flits[i] = mkFlit(uint64(i), 0, flit.VNReq) // dst 0 != node 4
		}
		as := d.Assign(flits, usable, 1)
		usableCount := 0
		for dir := topology.Dir(0); dir < topology.NumDirs; dir++ {
			if mask&(1<<uint(dir)) != 0 {
				usableCount++
			}
		}
		assigned := 0
		for _, a := range as {
			if a.OK {
				if a.Dir != topology.Local && mask&(1<<uint(a.Dir)) == 0 {
					return false // assigned a masked port
				}
				assigned++
			}
		}
		wantAssigned := nFlits
		if usableCount < nFlits {
			wantAssigned = usableCount
		}
		return assigned == wantAssigned
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500, Rand: rand.New(rand.NewSource(8))}); err != nil {
		t.Error(err)
	}
}

func TestPolicyString(t *testing.T) {
	if PolicyRandom.String() != "random" || PolicyOldest.String() != "oldest" {
		t.Error("policy strings wrong")
	}
}

// TestDeflectorExhaustiveSmallCases enumerates every availability mask and
// flit count at a center node and checks the matching is maximal: the
// number of assigned flits equals min(#flits, #usable outputs [+1 if a
// destined flit can eject]).
func TestDeflectorExhaustiveSmallCases(t *testing.T) {
	mesh := topology.NewMesh(3, 3)
	node := topology.NodeID(4)
	rng := rand.New(rand.NewSource(99))
	d := newDeflector(mesh, node, PolicyRandom, rng)
	for mask := 0; mask < 16; mask++ {
		usable := func(_ *flit.Flit, dir topology.Dir) bool {
			return mask&(1<<uint(dir)) != 0
		}
		usableCount := 0
		for dir := topology.Dir(0); dir < topology.NumDirs; dir++ {
			if mask&(1<<uint(dir)) != 0 {
				usableCount++
			}
		}
		for nFlits := 0; nFlits <= 4; nFlits++ {
			for destined := 0; destined <= 1 && destined <= nFlits; destined++ {
				flits := make([]*flit.Flit, nFlits)
				for i := range flits {
					dst := topology.NodeID(0)
					if i < destined {
						dst = node
					}
					flits[i] = mkFlit(uint64(i), dst, flit.VNReq)
				}
				for trial := 0; trial < 5; trial++ {
					as := d.Assign(flits, usable, 1)
					assigned, ejected := 0, 0
					for _, a := range as {
						if a.OK {
							assigned++
							if a.Dir == topology.Local {
								ejected++
							}
						}
					}
					capacity := usableCount + min(destined, 1)
					want := nFlits
					if capacity < want {
						want = capacity
					}
					if assigned != want {
						t.Fatalf("mask=%04b flits=%d destined=%d: assigned %d, want %d",
							mask, nFlits, destined, assigned, want)
					}
					if ejected > 1 {
						t.Fatalf("ejected %d with width 1", ejected)
					}
				}
			}
		}
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

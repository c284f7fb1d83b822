package router

import (
	"math/rand"
	"sort"

	"afcnet/internal/flit"
	"afcnet/internal/topology"
)

// DeflectPolicy selects how contending flits are prioritized in a
// deflection router.
type DeflectPolicy uint8

// Deflection arbitration policies.
const (
	// PolicyRandom randomizes flit priority each cycle, Chaos-router
	// style. Livelock freedom is probabilistic (Section III-F: a strong
	// guarantee — the probability of non-delivery can be made arbitrarily
	// small). This is the paper's policy.
	PolicyRandom DeflectPolicy = iota
	// PolicyOldest gives priority to the oldest flit (BLESS-style
	// hardware priorities), which makes livelock freedom deterministic.
	// Provided for comparison/ablation.
	PolicyOldest
)

// String implements fmt.Stringer.
func (p DeflectPolicy) String() string {
	if p == PolicyOldest {
		return "oldest"
	}
	return "random"
}

// Assignment is the outcome of deflection port assignment for one flit.
type Assignment struct {
	// Dir is the assigned output; topology.Local means ejection.
	Dir topology.Dir
	// OK is false if no output could be assigned (only possible when the
	// caller restricts availability, e.g. AFC masking credit-exhausted
	// outputs; a pure deflection router always succeeds).
	OK bool
	// Deflected reports whether the assignment is a misroute (not a
	// productive direction and not an ejection).
	Deflected bool
}

// Deflector implements the port-assignment step of deflection
// (hot-potato) routing for one router: every contending flit receives some
// free output; at most one flit ejects per cycle; losers are misrouted.
type Deflector struct {
	node   topology.NodeID
	policy DeflectPolicy
	rng    *rand.Rand

	// routes is node's precomputed route table (per-destination DOR
	// next hop and productive-direction set).
	routes topology.RouteTable

	// scratch buffers reused across cycles to avoid allocation
	order []int
	free  []topology.Dir
	out   []Assignment
}

// Init (re)initializes a deflector in place for value embedding. routes
// is node's view into the network's shared topology.Tables, so the
// O(N²) table exists once per mesh rather than once per deflector.
func (d *Deflector) Init(node topology.NodeID, policy DeflectPolicy, rng *rand.Rand, routes topology.RouteTable) {
	d.node = node
	d.policy = policy
	d.rng = rng
	d.routes = routes
}

// DORTable exposes the deflector's per-destination DOR table (aliasing
// tests assert it shares the network's backing).
func (d *Deflector) DORTable() []topology.Dir { return d.routes.DOR }

// Reseed rewinds the deflector's arbitration randomness onto a fresh
// stream root. With the scratch buffers carrying no cross-cycle state,
// this restores a freshly constructed deflector bit for bit (the reused-
// network reset path).
func (d *Deflector) Reseed(seed int64) { d.rng.Seed(seed) }

// Assign assigns an output direction to every flit in flits.
//
// usable(f, dir) must report whether output dir can carry f this cycle:
// the link exists, and (for AFC) the downstream router has credits for
// f's virtual network if it is in backpressured mode. Assign itself masks
// ports already taken by higher-priority flits. ejectFree reports whether
// the single ejection port is available.
//
// The returned slice is parallel to flits and is only valid until the next
// call. Flits are prioritized per the policy; each flit takes, in order of
// preference: ejection (if destined here), a productive direction (the
// DOR direction first, so low-load paths match the baseline), any other
// usable direction (a deflection). OK=false marks flits for which no
// output remained; a caller that never masks outputs can treat that as an
// invariant violation.
func (d *Deflector) Assign(flits []*flit.Flit, usable func(f *flit.Flit, dir topology.Dir) bool, ejectSlots int) []Assignment {
	if cap(d.out) < len(flits) {
		d.out = make([]Assignment, len(flits))
	}
	out := d.out[:len(flits)]
	if len(flits) == 0 {
		return out
	}

	d.order = d.order[:0]
	for i := range flits {
		d.order = append(d.order, i)
	}
	switch d.policy {
	case PolicyOldest:
		sort.SliceStable(d.order, func(a, b int) bool {
			fa, fb := flits[d.order[a]], flits[d.order[b]]
			if fa.InjectedAt != fb.InjectedAt {
				return fa.InjectedAt < fb.InjectedAt
			}
			if fa.PacketID != fb.PacketID {
				return fa.PacketID < fb.PacketID
			}
			return fa.Seq < fb.Seq
		})
	default: // PolicyRandom
		d.rng.Shuffle(len(d.order), func(a, b int) {
			d.order[a], d.order[b] = d.order[b], d.order[a]
		})
	}

	taken := [topology.NumDirs]bool{}
	for _, idx := range d.order {
		f := flits[idx]
		a := d.assignOne(f, usable, &taken, &ejectSlots)
		out[idx] = a
	}
	return out
}

func (d *Deflector) assignOne(f *flit.Flit, avail func(*flit.Flit, topology.Dir) bool, taken *[topology.NumDirs]bool, ejectSlots *int) Assignment {
	usable := func(dir topology.Dir) bool {
		return avail(f, dir) && !taken[dir]
	}

	dst := f.Dst
	if dst == d.node {
		if *ejectSlots > 0 {
			*ejectSlots--
			return Assignment{Dir: topology.Local, OK: true}
		}
		// Ejection port busy: the flit must be deflected and return later.
	} else {
		// Prefer the DOR next hop, then the other productive direction.
		if dor := d.routes.DOR[dst]; usable(dor) {
			taken[dor] = true
			return Assignment{Dir: dor, OK: true}
		}
		ps := &d.routes.Prod[dst]
		for _, dir := range ps.D[:ps.N] {
			if usable(dir) {
				taken[dir] = true
				return Assignment{Dir: dir, OK: true}
			}
		}
	}

	// Deflect: pick uniformly among the remaining free outputs so hot
	// spots spread symmetrically.
	d.free = d.free[:0]
	for dir := topology.Dir(0); dir < topology.NumDirs; dir++ {
		if usable(dir) {
			d.free = append(d.free, dir)
		}
	}
	if len(d.free) == 0 {
		return Assignment{OK: false}
	}
	dir := d.free[0]
	if len(d.free) > 1 && d.policy == PolicyRandom {
		dir = d.free[d.rng.Intn(len(d.free))]
	}
	taken[dir] = true
	return Assignment{Dir: dir, OK: true, Deflected: true}
}

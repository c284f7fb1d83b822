// Package traffic provides open-loop synthetic traffic for network
// characterization: the destination patterns and Bernoulli packet
// generators used by the latency-throughput sweeps ("Other results" in
// Section V-A), the hotspot experiment that exercises gossip-induced mode
// switching, and the Section V-B quadrant-consolidation workload.
package traffic

import (
	"fmt"
	"math/rand"

	"afcnet/internal/flit"
	"afcnet/internal/network"
	"afcnet/internal/topology"
)

// Pattern maps a source node to a random destination.
type Pattern interface {
	// Dest returns a destination for a packet from src; it must never
	// return src itself.
	Dest(src topology.NodeID, rng *rand.Rand) topology.NodeID
}

// Uniform sends to a uniformly random other node. On a degenerate
// one-node mesh there is no other node; Dest then returns src itself and
// the generator skips the injection (see Generator.Tick).
type Uniform struct{ Mesh topology.Mesh }

// Dest implements Pattern.
func (u Uniform) Dest(src topology.NodeID, rng *rand.Rand) topology.NodeID {
	n := u.Mesh.Nodes()
	if n <= 1 {
		return src
	}
	d := topology.NodeID(rng.Intn(n - 1))
	if d >= src {
		d++
	}
	return d
}

// Transpose sends from (x, y) to (y, x); nodes on the diagonal fall back
// to uniform. Requires a square mesh.
type Transpose struct{ Mesh topology.Mesh }

// Dest implements Pattern.
func (t Transpose) Dest(src topology.NodeID, rng *rand.Rand) topology.NodeID {
	x, y := t.Mesh.Coord(src)
	if x == y {
		return Uniform{Mesh: t.Mesh}.Dest(src, rng)
	}
	return t.Mesh.Node(y, x)
}

// BitComplement sends from (x, y) to (W-1-x, H-1-y); the center node of an
// odd mesh falls back to uniform.
type BitComplement struct{ Mesh topology.Mesh }

// Dest implements Pattern.
func (b BitComplement) Dest(src topology.NodeID, rng *rand.Rand) topology.NodeID {
	x, y := b.Mesh.Coord(src)
	d := b.Mesh.Node(b.Mesh.Width-1-x, b.Mesh.Height-1-y)
	if d == src {
		return Uniform{Mesh: b.Mesh}.Dest(src, rng)
	}
	return d
}

// Hotspot sends to a single hot node with probability Frac and uniformly
// otherwise; the hot node itself sends uniformly.
type Hotspot struct {
	Mesh topology.Mesh
	Hot  topology.NodeID
	Frac float64
}

// Dest implements Pattern.
func (h Hotspot) Dest(src topology.NodeID, rng *rand.Rand) topology.NodeID {
	if src != h.Hot && rng.Float64() < h.Frac {
		return h.Hot
	}
	return Uniform{Mesh: h.Mesh}.Dest(src, rng)
}

// NearNeighbor sends to a uniformly random mesh neighbor — the "easy"
// pattern discussed in Section III-B (high flit throughput without link
// contention).
type NearNeighbor struct{ Mesh topology.Mesh }

// Dest implements Pattern.
func (nn NearNeighbor) Dest(src topology.NodeID, rng *rand.Rand) topology.NodeID {
	var opts [topology.NumDirs]topology.NodeID
	n := 0
	for d := topology.Dir(0); d < topology.NumDirs; d++ {
		if nb, ok := nn.Mesh.Neighbor(src, d); ok {
			opts[n] = nb
			n++
		}
	}
	return opts[rng.Intn(n)]
}

// Quadrant keeps traffic inside the source's quadrant of the mesh
// (Section V-B: an 8x8 consolidation workload where a different
// application runs in each quadrant and traffic stays within it, except
// for misrouting).
type Quadrant struct{ Mesh topology.Mesh }

// Dest implements Pattern.
func (q Quadrant) Dest(src topology.NodeID, rng *rand.Rand) topology.NodeID {
	qw, qh := q.Mesh.Width/2, q.Mesh.Height/2
	if qw < 1 || qh < 1 {
		// A mesh narrower than 2 in either dimension has no quadrants;
		// rng.Intn(0) below would panic. Fall back to uniform like the
		// other patterns do for their degenerate sources.
		return Uniform{Mesh: q.Mesh}.Dest(src, rng)
	}
	x, y := q.Mesh.Coord(src)
	x0, y0 := (x/qw)*qw, (y/qh)*qh
	// On odd meshes the last row/column of quadrants is clipped by the
	// mesh boundary; clamp so the draw below never leaves the mesh.
	w, h := qw, qh
	if x0+w > q.Mesh.Width {
		w = q.Mesh.Width - x0
	}
	if y0+h > q.Mesh.Height {
		h = q.Mesh.Height - y0
	}
	if w*h < 2 {
		// The quadrant degenerates to src alone: the redraw loop would
		// never terminate. Fall back to uniform.
		return Uniform{Mesh: q.Mesh}.Dest(src, rng)
	}
	for {
		dx := x0 + rng.Intn(w)
		dy := y0 + rng.Intn(h)
		d := q.Mesh.Node(dx, dy)
		if d != src {
			return d
		}
	}
}

// QuadrantIndex returns which quadrant (0..3, row-major) a node is in.
func QuadrantIndex(m topology.Mesh, n topology.NodeID) int {
	x, y := m.Coord(n)
	qi := 0
	if x >= m.Width/2 {
		qi = 1
	}
	if y >= m.Height/2 {
		qi += 2
	}
	return qi
}

// Config parameterizes an open-loop generator.
type Config struct {
	// Pattern picks destinations.
	Pattern Pattern
	// Rate is the offered load in flits/node/cycle, used for every node
	// unless NodeRates overrides it.
	Rate float64
	// NodeRates optionally gives a per-node offered load (the quadrant
	// experiment injects 0.9 in the hot quadrant and 0.1 elsewhere).
	NodeRates []float64
	// DataFraction is the fraction of packets that are data packets
	// (17 flits); the rest are single-flit control packets alternating
	// between the two control VNs. The default 0.25 approximates the
	// closed-loop request/response mix.
	DataFraction float64
}

// Generator injects open-loop traffic into a network. Register it with
// net.AddTicker.
type Generator struct {
	net  *network.Network
	cfg  Config
	rngs []*rand.Rand
	flip []bool // alternates control packets across the two control VNs

	offered uint64
	stopped bool
	maxRate float64

	// scale multiplies every node's configured rate; the scenario
	// engine's bursty phases toggle it between 1 and an off-phase value
	// without disturbing the per-node rate configuration.
	scale float64
	// dead marks nodes whose routers have been fault-injected away:
	// they stop sourcing traffic and the destination draw redirects away
	// from them. Nil until the first MarkDead.
	dead      []bool
	deadCount int
}

// validateNodeRates rejects a NodeRates slice whose length does not match
// the network. Without this check the mismatch surfaces much later as an
// opaque index panic inside Tick (or silently under-drives the mesh when
// the slice is too long).
func validateNodeRates(cfg Config, nodes int) {
	if cfg.NodeRates != nil && len(cfg.NodeRates) != nodes {
		panic(fmt.Sprintf("traffic: Config.NodeRates has %d entries for a %d-node network",
			len(cfg.NodeRates), nodes))
	}
}

// NewGenerator returns a generator for net. Each node gets an independent
// random stream derived from the network's seed via seeds.
func NewGenerator(net *network.Network, cfg Config, seeds func() *rand.Rand) *Generator {
	if cfg.DataFraction == 0 {
		cfg.DataFraction = 0.25
	}
	if cfg.Pattern == nil {
		cfg.Pattern = Uniform{Mesh: net.Mesh()}
	}
	validateNodeRates(cfg, net.Nodes())
	g := &Generator{
		net:   net,
		cfg:   cfg,
		rngs:  make([]*rand.Rand, net.Nodes()),
		flip:  make([]bool, net.Nodes()),
		scale: 1,
	}
	for i := range g.rngs {
		g.rngs[i] = seeds()
	}
	g.recomputeMaxRate()
	return g
}

// Reattach rebinds the generator to its (freshly Reset) network as
// NewGenerator would: same per-node stream numbering, same defaults —
// but reusing the existing generators and flip state. Like NewGenerator
// it does not register a ticker; the caller does.
func (g *Generator) Reattach(cfg Config) {
	if cfg.DataFraction == 0 {
		cfg.DataFraction = 0.25
	}
	if cfg.Pattern == nil {
		cfg.Pattern = Uniform{Mesh: g.net.Mesh()}
	}
	validateNodeRates(cfg, g.net.Nodes())
	g.cfg = cfg
	for i := range g.rngs {
		g.net.ReseedStream(g.rngs[i])
		g.flip[i] = false
	}
	g.offered = 0
	g.stopped = false
	g.scale = 1
	g.dead = nil
	g.deadCount = 0
	g.recomputeMaxRate()
}

func (g *Generator) recomputeMaxRate() {
	g.maxRate = g.cfg.Rate
	if g.cfg.NodeRates != nil {
		g.maxRate = 0
		for _, r := range g.cfg.NodeRates {
			if r > g.maxRate {
				g.maxRate = r
			}
		}
	}
}

// SetRate replaces the offered load with a single uniform rate, clearing
// any per-node rates (scenario ramps).
func (g *Generator) SetRate(rate float64) {
	g.cfg.Rate = rate
	g.cfg.NodeRates = nil
	g.recomputeMaxRate()
}

// SetNodeRates replaces the offered load with a per-node rate vector
// (scenario hotspot relocation / quadrant phases). The slice is copied.
func (g *Generator) SetNodeRates(rates []float64) {
	if len(rates) != g.net.Nodes() {
		panic(fmt.Sprintf("traffic: SetNodeRates got %d entries for a %d-node network",
			len(rates), g.net.Nodes()))
	}
	g.cfg.NodeRates = append([]float64(nil), rates...)
	g.recomputeMaxRate()
}

// SetPattern replaces the destination pattern mid-run (scenario hotspot
// relocation). A nil pattern restores uniform.
func (g *Generator) SetPattern(p Pattern) {
	if p == nil {
		p = Uniform{Mesh: g.net.Mesh()}
	}
	g.cfg.Pattern = p
}

// SetScale sets the burst scale factor applied to every node's rate.
// Scale 0 silences the generator (and makes it quiescent) without
// forgetting the configured rates; scale 1 restores them.
func (g *Generator) SetScale(s float64) { g.scale = s }

// MarkDead removes node n from the workload: it stops sourcing packets
// and destination draws that land on it are redirected to a live node
// (fault injection; dead routers neither inject nor eject).
func (g *Generator) MarkDead(n topology.NodeID) {
	if g.dead == nil {
		g.dead = make([]bool, g.net.Nodes())
	}
	if !g.dead[n] {
		g.dead[n] = true
		g.deadCount++
	}
}

// MeanPacketLen returns the expected packet length under the configured
// mix.
func (g *Generator) MeanPacketLen() float64 {
	return g.cfg.DataFraction*flit.DataPacketFlits + (1-g.cfg.DataFraction)*flit.ControlPacketFlits
}

// rate returns the effective flit rate of node i.
func (g *Generator) rate(i int) float64 {
	if g.dead != nil && g.dead[i] {
		return 0
	}
	r := g.cfg.Rate
	if g.cfg.NodeRates != nil {
		r = g.cfg.NodeRates[i]
	}
	return r * g.scale
}

// OfferedFlits returns the number of flits offered so far.
func (g *Generator) OfferedFlits() uint64 { return g.offered }

// Stop halts further packet generation (drain phases of experiments).
func (g *Generator) Stop() { g.stopped = true }

// Quiescent implements sim.Quiescer: an active generator draws randomness
// for every node every cycle, so it is quiescent only once stopped (or
// configured with no positive rate). This is what makes drain phases
// skippable by the active-set kernel.
func (g *Generator) Quiescent(now uint64) bool {
	return g.stopped || g.maxRate*g.scale <= 0
}

// FastForward implements sim.Quiescer. A quiescent generator's Tick is a
// pure no-op (it returns before touching any RNG), so there is nothing to
// batch-advance.
func (g *Generator) FastForward(cycles uint64) {}

// Tick implements sim.Ticker: per node, create a packet with probability
// rate/meanLen, so offered load in flits matches the configured rate.
func (g *Generator) Tick(now uint64) {
	if g.stopped {
		return
	}
	meanLen := g.MeanPacketLen()
	for i := 0; i < g.net.Nodes(); i++ {
		r := g.rate(i)
		if r <= 0 {
			continue
		}
		rng := g.rngs[i]
		if rng.Float64() >= r/meanLen {
			continue
		}
		src := topology.NodeID(i)
		dst := g.cfg.Pattern.Dest(src, rng)
		if g.deadCount > 0 {
			dst = g.redirect(src, dst, rng)
		}
		if dst == src {
			// Degenerate pattern (one-node mesh) or no live
			// destination remains: skip this injection.
			continue
		}
		vn := flit.VNData
		length := flit.DataPacketFlits
		if rng.Float64() >= g.cfg.DataFraction {
			length = flit.ControlPacketFlits
			if g.flip[i] {
				vn = flit.VNReq
			} else {
				vn = flit.VNResp
			}
			g.flip[i] = !g.flip[i]
		}
		g.net.NI(src).SendPacket(now, dst, vn, length, 0)
		g.offered += uint64(length)
	}
}

// redirect steers a destination draw away from dead nodes: a few
// pattern-shaped redraws first (so e.g. uniform traffic stays uniform
// over the live nodes), then a deterministic scan for the first live
// node. Returns src when no live destination exists.
func (g *Generator) redirect(src, dst topology.NodeID, rng *rand.Rand) topology.NodeID {
	if !g.dead[dst] {
		return dst
	}
	for try := 0; try < 4; try++ {
		d := g.cfg.Pattern.Dest(src, rng)
		if !g.dead[d] {
			return d
		}
	}
	n := topology.NodeID(g.net.Nodes())
	for off := topology.NodeID(1); off < n; off++ {
		d := (dst + off) % n
		if d != src && !g.dead[d] {
			return d
		}
	}
	return src
}

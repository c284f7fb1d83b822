// Package check is the simulation's standing correctness oracle: a
// Checker attaches to a network.Network as an end-of-cycle ticker and
// continuously verifies cross-cutting invariants that the per-router
// panics cannot see — global flit conservation, credit ledgers
// reconciled against actual downstream buffer state, a flit-age bound
// (the livelock oracle for deflection routing), AFC mode-transition
// legality, and reassembly integrity at every NI.
//
// The checker is pure observation: it never mutates network state, so a
// checked run produces bit-for-bit the same results as an unchecked
// one. One checker per network; under the parallel experiment runner
// each cell attaches its own.
package check

import (
	"fmt"

	"afcnet/internal/config"
	"afcnet/internal/core"
	"afcnet/internal/flit"
	"afcnet/internal/link"
	"afcnet/internal/network"
	"afcnet/internal/topology"
	"afcnet/internal/vcrouter"
)

// DefaultMaxFlitAge bounds how long a flit may stay in the network.
// Deflection routing is only probabilistically livelock-free
// (Section III-F), so the bound is generous: a flit a hundred thousand
// cycles old is livelocked or leaked, not unlucky. Backlogged traffic
// waits in NI queues before injection and does not age against this
// bound.
const DefaultMaxFlitAge = 100_000

// Config parameterizes a Checker.
type Config struct {
	// MaxFlitAge is the in-network age bound; 0 selects
	// DefaultMaxFlitAge.
	MaxFlitAge uint64
	// Interval is the period of the heavyweight scans (conservation,
	// ledger reconciliation, reassembly); 0 checks every cycle. The
	// cheap per-cycle AFC mode and shadow-ledger checks always run
	// every cycle regardless.
	Interval uint64
	// FailFast panics on the first violation with the full message;
	// otherwise violations accumulate and are reported by Err.
	FailFast bool
}

// Checker verifies network-wide invariants at the end of every cycle.
type Checker struct {
	net  *network.Network
	cfg  Config
	kind network.Kind

	afcCap         [flit.NumVNs]int // per-VN SRAM capacity (AFC kinds)
	vcDepth        int              // per-VC buffer depth (backpressured kinds)
	numVCs         int              // VCs per port (backpressured kinds)
	ths            []config.Thresholds
	misroutePolicy bool
	steadyAfter    uint64 // tracked cycles before occupancy reconciliation

	cycles     uint64
	violations []string

	edges []edgeState
	modes []modeState

	scratchF []*flit.Flit
	scratchC []link.Credit
	vcFlits  []int
	vcCreds  []int

	// The conservation scan's per-scan state, and its flit visitor bound
	// once in New: a closure over locals would escape through flitHolder
	// and allocate on every scan.
	scanNow        uint64
	scanAgeChecked bool
	scanInNet      int
	countFlit      func(*flit.Flit)
}

// edgeState is the checker's view of one directed link bundle, including
// the shadow credit ledger it maintains for AFC credit tracking.
type edgeState struct {
	from topology.NodeID
	dir  topology.Dir
	to   topology.NodeID

	tracking   bool
	shadow     [flit.NumVNs]int
	trackedFor uint64 // end-of-cycle observations since tracking began
	unsteady   bool   // downstream seen backpressureless this episode
	pending    []pendingCredit
}

// pendingCredit is a credit the downstream router sent but the upstream
// router has not received yet.
type pendingCredit struct {
	due uint64
	vn  flit.VN
}

// modeState is the previous end-of-cycle mode snapshot of one AFC
// router, used to validate transitions and switch counters.
type modeState struct {
	init       bool
	mode       core.Mode
	modeCycles [3]uint64
	forward    uint64
	reverse    uint64
	gossip     uint64
	escapes    uint64
}

// New builds a checker for net without attaching it. Most callers want
// Attach or AttachWith.
func New(net *network.Network, cfg Config) *Checker {
	if cfg.MaxFlitAge == 0 {
		cfg.MaxFlitAge = DefaultMaxFlitAge
	}
	if cfg.Interval == 0 {
		cfg.Interval = 1
	}
	c := &Checker{net: net, cfg: cfg, kind: net.Config().Kind}
	c.countFlit = c.visitFlit
	sys := net.Config().System
	c.afcCap = sys.AFC.VCsPerVN
	c.vcDepth = sys.Baseline.BufDepth
	c.numVCs = sys.Baseline.VCsPerPort()
	c.misroutePolicy = net.Config().MisrouteThreshold > 0
	// After a forward switch the link may still carry flits sent before
	// credit tracking began; give each episode a full round trip to
	// settle before reconciling occupancy against credits.
	c.steadyAfter = uint64(2*sys.LinkLatency + 3)
	c.vcFlits = make([]int, c.numVCs)
	c.vcCreds = make([]int, c.numVCs)
	mesh := net.Mesh()
	for node := topology.NodeID(0); node < topology.NodeID(mesh.Nodes()); node++ {
		c.ths = append(c.ths, sys.AFC.ThresholdsByPosition[mesh.Position(node)])
		for d := topology.Dir(0); d < topology.NumDirs; d++ {
			nb, ok := mesh.Neighbor(node, d)
			if !ok {
				continue
			}
			c.edges = append(c.edges, edgeState{from: node, dir: d, to: nb})
		}
	}
	if c.kind == network.AFC || c.kind == network.AFCAlwaysBuffered {
		c.modes = make([]modeState, mesh.Nodes())
	}
	return c
}

// Attach builds a fail-fast checker and registers it to tick at the end
// of every cycle. It must be called before the network's first cycle:
// the shadow ledgers assume observation from cycle 0.
func Attach(net *network.Network) *Checker {
	return AttachWith(net, Config{FailFast: true})
}

// AttachWith is Attach with an explicit configuration.
func AttachWith(net *network.Network, cfg Config) *Checker {
	if net.Now() != 0 {
		panic("check: checker must attach before the network's first cycle")
	}
	c := New(net, cfg)
	net.AddTicker(c)
	return c
}

// CheckedCycles returns how many cycles the checker has observed.
func (c *Checker) CheckedCycles() uint64 { return c.cycles }

// Violations returns the accumulated violation messages.
func (c *Checker) Violations() []string {
	out := make([]string, len(c.violations))
	copy(out, c.violations)
	return out
}

// Err summarizes the violations as an error, nil if none.
func (c *Checker) Err() error {
	switch len(c.violations) {
	case 0:
		return nil
	case 1:
		return fmt.Errorf("%s", c.violations[0])
	}
	return fmt.Errorf("%s (and %d more violations)", c.violations[0], len(c.violations)-1)
}

func (c *Checker) fail(now uint64, format string, args ...any) {
	msg := fmt.Sprintf("check[%v @%d]: %s", c.kind, now, fmt.Sprintf(format, args...))
	c.violations = append(c.violations, msg)
	if c.cfg.FailFast {
		panic(msg)
	}
}

// Tick implements sim.Ticker. The network registers routers first, so
// the checker observes a settled end-of-cycle state.
func (c *Checker) Tick(now uint64) {
	c.cycles++
	if c.modes != nil {
		c.checkModes(now)
		c.checkAFCEdges(now)
	}
	if now%c.cfg.Interval != 0 {
		return
	}
	c.checkConservationAndAges(now)
	c.checkReassembly(now)
	switch c.kind {
	case network.Backpressured, network.BackpressuredIdealBypass:
		c.checkVCLedgers(now)
	case network.AFC, network.AFCAlwaysBuffered:
		c.checkAFCOccupancy(now)
	}
}

// flitHolder is implemented by every router kind; it exposes the flits
// a router currently holds.
type flitHolder interface {
	ForEachFlit(func(*flit.Flit))
}

// checkConservationAndAges verifies global flit conservation — every
// flit ever injected is buffered, latched, in flight on a link, ejected,
// or (drop variant) dropped pending NACK retransmission — and bounds the
// age of every in-network flit (the livelock oracle).
func (c *Checker) checkConservationAndAges(now uint64) {
	var injected, ejected uint64
	c.scanNow = now
	c.scanInNet = 0
	// With dead links or routers in play, flits stranded behind them are
	// expected to age without bound — the age oracle would misreport the
	// intended fault as livelock. Conservation still holds (stranded
	// flits stay enumerable), so only the age check is suspended.
	c.scanAgeChecked = !c.net.FaultsActive()
	for node := 0; node < c.net.Nodes(); node++ {
		nif := c.net.NI(topology.NodeID(node))
		injected += nif.TotalInjectedFlits()
		ejected += nif.TotalEjectedFlits()
		c.net.Router(topology.NodeID(node)).(flitHolder).ForEachFlit(c.countFlit)
	}
	for ei := range c.edges {
		e := &c.edges[ei]
		c.scratchF = c.net.Wires(e.from).Ports[e.dir].Out.AppendInFlight(c.scratchF[:0])
		for _, f := range c.scratchF {
			c.visitFlit(f)
		}
	}
	dropped := c.net.TotalDropped()
	if injected != ejected+uint64(c.scanInNet)+dropped {
		c.fail(now, "flit conservation: injected %d != ejected %d + in-network %d + dropped %d",
			injected, ejected, c.scanInNet, dropped)
	}
}

// visitFlit counts one in-network flit for the conservation scan and
// checks its age and arena handle.
func (c *Checker) visitFlit(f *flit.Flit) {
	c.scanInNet++
	now := c.scanNow
	if age := now - f.InjectedAt; c.scanAgeChecked && age > c.cfg.MaxFlitAge {
		c.fail(now, "age bound: flit pkt=%#x seq=%d src=%d dst=%d injected at %d is %d cycles old (bound %d) — livelock or leak",
			f.PacketID, f.Seq, f.Src, f.Dst, f.InjectedAt, age, c.cfg.MaxFlitAge)
	}
	if err := flit.CheckHandle(f); err != nil {
		c.fail(now, "arena lifecycle: %v", err)
	}
}

// checkReassembly asks every NI to self-verify its reassembly state.
func (c *Checker) checkReassembly(now uint64) {
	for node := 0; node < c.net.Nodes(); node++ {
		if err := c.net.NI(topology.NodeID(node)).CheckReassembly(); err != nil {
			c.fail(now, "reassembly at node %d: %v", node, err)
		}
	}
}

// checkVCLedgers reconciles the baseline router's per-VC credit counts
// against ground truth. At the end of any cycle, for each directed edge
// and VC: upstream credits + downstream occupancy + flits in flight
// toward downstream + credits in flight back upstream = buffer depth.
func (c *Checker) checkVCLedgers(now uint64) {
	for ei := range c.edges {
		e := &c.edges[ei]
		// A killed link loses credits for good: flits already in flight
		// when it died may still land downstream, but the return credit is
		// suppressed, so the ledger can never rebalance on this edge.
		if c.net.LinkDead(e.from, e.dir) {
			continue
		}
		a := c.net.Router(e.from).(*vcrouter.Router)
		b := c.net.Router(e.to).(*vcrouter.Router)
		pl := c.net.Wires(e.from).Ports[e.dir]
		op := e.dir.Opposite()
		for v := 0; v < c.numVCs; v++ {
			c.vcFlits[v], c.vcCreds[v] = 0, 0
		}
		c.scratchF = pl.Out.AppendInFlight(c.scratchF[:0])
		for _, f := range c.scratchF {
			c.vcFlits[f.VC]++
		}
		c.scratchC = pl.CreditIn.AppendInFlight(c.scratchC[:0])
		for _, cr := range c.scratchC {
			c.vcCreds[cr.VC]++
		}
		for v := 0; v < c.numVCs; v++ {
			got := a.Credits(e.dir, v) + b.Occupancy(op, v) + c.vcFlits[v] + c.vcCreds[v]
			if got != c.vcDepth {
				c.fail(now, "credit ledger: edge %d-%v->%d vc %d: credits %d + occupancy %d + flits in flight %d + credits in flight %d != depth %d",
					e.from, e.dir, e.to, v, a.Credits(e.dir, v), b.Occupancy(op, v), c.vcFlits[v], c.vcCreds[v], c.vcDepth)
			}
		}
	}
}

// checkAFCEdges maintains a shadow credit ledger per directed edge and
// compares it against the upstream router's tracked credits every cycle.
// The shadow replays exactly the protocol: start at full capacity when
// tracking begins (the downstream buffers are empty at a forward
// switch), debit when the upstream router launches a flit, and credit
// when a downstream-sent credit lands after the credit-link latency.
func (c *Checker) checkAFCEdges(now uint64) {
	for ei := range c.edges {
		e := &c.edges[ei]
		// A killed link stops carrying credits and control, and a dead
		// endpoint router stops consuming what is already in flight, so
		// the shadow ledger diverges from the frozen real one by design.
		if c.net.LinkDead(e.from, e.dir) {
			e.tracking = false
			e.pending = e.pending[:0]
			continue
		}
		a := c.net.Router(e.from).(*core.Router)
		_, tracking := a.Credits(e.dir, 0)
		if !tracking {
			e.tracking = false
			e.pending = e.pending[:0]
			continue
		}
		if !e.tracking {
			e.tracking = true
			e.shadow = c.afcCap
			e.pending = e.pending[:0]
			e.trackedFor = 0
			e.unsteady = false
		}
		e.trackedFor++
		keep := e.pending[:0]
		for _, pc := range e.pending {
			if pc.due <= now {
				e.shadow[pc.vn]++
			} else {
				keep = append(keep, pc)
			}
		}
		e.pending = keep
		pl := c.net.Wires(e.from).Ports[e.dir]
		// The value arriving at now+latency is exactly what was sent
		// this cycle (earlier arrivals were consumed by the routers). On
		// a sharded run a boundary pipe's current-cycle send is still
		// parked in its staged register — the owner commits it next
		// cycle — so it is only visible through StagedAt; the two reads
		// cannot both hit (staged pipes never enter the ring same-cycle).
		cr, ok := pl.CreditIn.Peek(now + uint64(pl.CreditIn.Latency()))
		if !ok {
			cr, ok = pl.CreditIn.StagedAt(now)
		}
		if ok {
			e.pending = append(e.pending, pendingCredit{due: now + uint64(pl.CreditIn.Latency()), vn: cr.VN})
		}
		f, ok := pl.Out.Peek(now + uint64(pl.Out.Latency()))
		if !ok {
			f, ok = pl.Out.StagedAt(now)
		}
		if ok {
			e.shadow[f.VN]--
		}
		if c.net.Router(e.to).(*core.Router).Mode() == core.ModeBless {
			e.unsteady = true
		}
		for vn := flit.VN(0); vn < flit.NumVNs; vn++ {
			got, _ := a.Credits(e.dir, vn)
			if got != e.shadow[vn] {
				c.fail(now, "credit ledger: router %d toward %v vn %v holds %d credits, shadow ledger says %d",
					e.from, e.dir, vn, got, e.shadow[vn])
			}
			if got < 0 || got > c.afcCap[vn] {
				c.fail(now, "credit ledger: router %d toward %v vn %v credit count %d outside [0,%d]",
					e.from, e.dir, vn, got, c.afcCap[vn])
			}
		}
	}
}

// checkAFCOccupancy reconciles tracked credits against actual SRAM
// occupancy on edges whose credit-tracking episode has settled: once the
// pre-tracking flits have landed and while the downstream router stays
// backpressured, upstream credits + downstream SRAM occupancy + traffic
// in flight must equal the per-VN capacity. Escape latches are
// uncredited by design and drop out of the equation.
func (c *Checker) checkAFCOccupancy(now uint64) {
	for ei := range c.edges {
		e := &c.edges[ei]
		if !e.tracking || e.unsteady || e.trackedFor <= c.steadyAfter {
			continue
		}
		b := c.net.Router(e.to).(*core.Router)
		if b.Mode() != core.ModeBuffered {
			continue
		}
		a := c.net.Router(e.from).(*core.Router)
		pl := c.net.Wires(e.from).Ports[e.dir]
		op := e.dir.Opposite()
		var flitsFlight, credsFlight [flit.NumVNs]int
		c.scratchF = pl.Out.AppendInFlight(c.scratchF[:0])
		for _, f := range c.scratchF {
			flitsFlight[f.VN]++
		}
		c.scratchC = pl.CreditIn.AppendInFlight(c.scratchC[:0])
		for _, cr := range c.scratchC {
			credsFlight[cr.VN]++
		}
		for vn := flit.VN(0); vn < flit.NumVNs; vn++ {
			credits, _ := a.Credits(e.dir, vn)
			got := credits + b.Occupancy(op, vn) + flitsFlight[vn] + credsFlight[vn]
			if got != c.afcCap[vn] {
				c.fail(now, "buffer slots leaked: edge %d-%v->%d vn %v: credits %d + occupancy %d + flits in flight %d + credits in flight %d != capacity %d",
					e.from, e.dir, e.to, vn, credits, b.Occupancy(op, vn), flitsFlight[vn], credsFlight[vn], c.afcCap[vn])
			}
		}
	}
}

// checkModes validates AFC mode-machine behavior cycle by cycle: duty
// cycles advance by exactly one in the bucket of the previous mode,
// transitions follow the legal graph, switch counters move only with
// their transitions, gossip only rides a forward switch, and the
// hysteresis thresholds order the threshold-policy switches.
//
// Legal transitions per cycle: backpressureless may stay or begin
// switching; switching may stay, complete to backpressured, or — when
// completion and an immediate reverse decision land in the same cycle —
// appear to jump back to backpressureless; backpressured may stay or
// reverse to backpressureless. Backpressureless never jumps straight to
// backpressured: the switching window is mandatory.
func (c *Checker) checkModes(now uint64) {
	for node := range c.modes {
		// A killed router freezes: its duty cycles stop advancing, which
		// the one-cycle accounting below would flag. Nothing to validate.
		if c.net.RouterDead(topology.NodeID(node)) {
			continue
		}
		r := c.net.Router(topology.NodeID(node)).(*core.Router)
		cur := modeState{
			init:       true,
			mode:       r.Mode(),
			modeCycles: r.ModeCycles(),
			forward:    r.ForwardSwitches(),
			reverse:    r.ReverseSwitches(),
			gossip:     r.GossipSwitches(),
			escapes:    r.EscapeEvents(),
		}
		prev := c.modes[node]
		c.modes[node] = cur
		if !prev.init {
			continue
		}
		var dmc uint64
		for m := range cur.modeCycles {
			dmc += cur.modeCycles[m] - prev.modeCycles[m]
		}
		if dmc != 1 {
			c.fail(now, "router %d: mode duty cycles advanced by %d in one cycle", node, dmc)
		} else if cur.modeCycles[prev.mode] != prev.modeCycles[prev.mode]+1 {
			c.fail(now, "router %d: cycle accounted to the wrong mode (was %v at end of previous cycle)", node, prev.mode)
		}
		dF := cur.forward - prev.forward
		dR := cur.reverse - prev.reverse
		dG := cur.gossip - prev.gossip
		dE := cur.escapes - prev.escapes
		if c.kind == network.AFCAlwaysBuffered {
			if cur.mode != core.ModeBuffered || dF != 0 || dR != 0 || dG != 0 {
				c.fail(now, "router %d: always-backpressured router left %v or switched (+%d forward, +%d reverse, +%d gossip)",
					node, core.ModeBuffered, dF, dR, dG)
			}
			continue
		}
		if prev.mode == core.ModeBless && cur.mode == core.ModeBuffered {
			c.fail(now, "router %d: illegal transition %v -> %v (skipped the switching window)", node, prev.mode, cur.mode)
		}
		if prev.mode == core.ModeBuffered && cur.mode == core.ModeSwitching {
			c.fail(now, "router %d: illegal transition %v -> %v", node, prev.mode, cur.mode)
		}
		var wantF, wantR uint64
		if prev.mode == core.ModeBless && cur.mode == core.ModeSwitching {
			wantF = 1
		}
		if prev.mode != core.ModeBless && cur.mode == core.ModeBless {
			wantR = 1
		}
		if dF != wantF {
			c.fail(now, "router %d: forward switches moved +%d on %v -> %v (want +%d)", node, dF, prev.mode, cur.mode, wantF)
		}
		if dR != wantR {
			c.fail(now, "router %d: reverse switches moved +%d on %v -> %v (want +%d)", node, dR, prev.mode, cur.mode, wantR)
		}
		if dG > dF {
			c.fail(now, "router %d: gossip switch without a forward switch", node)
		}
		th := c.ths[node]
		// A forward switch driven by the contention threshold must see
		// intensity above High; gossip- and escape-triggered switches
		// fire below it by design, and the misroute-policy ablation does
		// not use the thresholds at all.
		if wantF == 1 && dG == 0 && dE == 0 && !c.misroutePolicy && r.Intensity() <= th.High {
			c.fail(now, "router %d: forward switch at intensity %.3f <= high threshold %.3f", node, r.Intensity(), th.High)
		}
		if wantR == 1 {
			if r.Intensity() >= th.Low {
				c.fail(now, "router %d: reverse switch at intensity %.3f >= low threshold %.3f", node, r.Intensity(), th.Low)
			}
			if r.BufferedFlits() != 0 || r.LatchedFlits() != 0 {
				c.fail(now, "router %d: reverse switch with %d buffered and %d latched flits still held",
					node, r.BufferedFlits(), r.LatchedFlits())
			}
		}
	}
}

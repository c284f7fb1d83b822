// Package network assembles a complete on-chip network: a mesh of routers
// of a chosen flow-control kind, the links between them, one network
// interface per node, and per-router energy meters, driven by a
// synchronous cycle kernel.
package network

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"

	"afcnet/internal/config"
	"afcnet/internal/core"
	"afcnet/internal/deflect"
	"afcnet/internal/energy"
	"afcnet/internal/flit"
	"afcnet/internal/link"
	"afcnet/internal/ni"
	"afcnet/internal/router"
	"afcnet/internal/sim"
	"afcnet/internal/topology"
	"afcnet/internal/vcrouter"
)

// Kind selects the flow-control mechanism of every router in the network
// (networks are homogeneous in kind; AFC routers adapt their mode
// individually).
type Kind int

// Network kinds, matching the configurations compared in Section V.
const (
	// Backpressured is the baseline credit-based VC router.
	Backpressured Kind = iota
	// BackpressuredIdealBypass is the baseline with all buffer dynamic
	// energy elided — the lower bound for buffer-bypass techniques.
	// Timing is identical to Backpressured.
	BackpressuredIdealBypass
	// Bless is the backpressureless flit-by-flit deflection router.
	Bless
	// BlessDrop is the drop-based backpressureless variant (extension).
	BlessDrop
	// AFC is the adaptive flow control router.
	AFC
	// AFCAlwaysBuffered pins every AFC router in backpressured mode,
	// isolating lazy VC allocation from adaptivity.
	AFCAlwaysBuffered

	NumKinds = 6
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case Backpressured:
		return "backpressured"
	case BackpressuredIdealBypass:
		return "backpressured-ideal-bypass"
	case Bless:
		return "backpressureless"
	case BlessDrop:
		return "backpressureless-drop"
	case AFC:
		return "afc"
	case AFCAlwaysBuffered:
		return "afc-always-backpressured"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// FlitWidthBits returns the total flit width of the kind (Section IV).
func (k Kind) FlitWidthBits() int {
	switch k {
	case Backpressured, BackpressuredIdealBypass:
		return flit.WidthBackpressured
	case Bless, BlessDrop:
		return flit.WidthBackpressureless
	default:
		return flit.WidthAFC
	}
}

// Config parameterizes a network build.
type Config struct {
	// System is the machine configuration (Table II); config.Default()
	// if zero-valued fields are detected.
	System config.System
	// Kind selects the flow-control mechanism.
	Kind Kind
	// Seed roots all randomness (deflection arbitration, traffic).
	Seed int64
	// MeterEnergy enables energy accounting with energy.DefaultParams();
	// false disables it entirely.
	MeterEnergy bool
	// Policy selects deflection arbitration (PolicyRandom by default).
	Policy router.DeflectPolicy
	// MisrouteThreshold > 0 switches AFC routers with the rejected
	// cumulative-misroute policy instead of local contention thresholds
	// (ablation A7; see core.Options.MisrouteThreshold).
	MisrouteThreshold int
	// Shards splits the router bank's tick across a persistent worker
	// group: the mesh is partitioned into contiguous row bands, each
	// band's routers tick in parallel with all cross-shard effects staged
	// and drained in a fixed global order, so results match the serial
	// kernel for any shard count (see internal/network/shard.go). Values
	// above the mesh height clamp to one shard per row. Shards <= 1 is
	// serial: the bank's one band of every node ticks on the caller, with
	// no worker group, staging or drain.
	Shards int
}

// Network is a fully wired mesh NoC.
type Network struct {
	cfg    Config
	mesh   topology.Mesh
	kernel *sim.Kernel
	source *sim.Source
	arena  *flit.Arena

	routers []router.Router
	nis     []*ni.NI
	meters  []*energy.Meter
	links   []*link.Data
	wires   []router.Wires

	// tables is the per-mesh route state (node coordinates and
	// neighbor lists) every router and deflector shares.
	tables *topology.Tables
	// inbox is the per-node aggregate in-flight slab: inbox[v] mirrors
	// the summed InFlight of every pipe inbound to v's router
	// (router.Wires.Tally), split by pipe class — [0] data, [1] credit,
	// [2] ctrl — so the quiescence probe reads one cache line and each
	// receive scan skips outright when its class is idle (in bless-mode
	// steady state the credit and ctrl counters stay zero). Node-ordered,
	// so it is band-major for the sharded tick and each shard touches a
	// private range.
	inbox [][3]int32
	// coreSlab is the contiguous router bank for AFC kinds (nil for the
	// others); its counterparts for the remaining kinds live below.
	coreSlab *core.Slab
	vcSlab   *vcrouter.Slab
	deflSlab *deflect.Slab
	dropSlab *deflect.DropSlab

	// baseTickers marks the kernel registrations made by build itself
	// (router bank + NACK housekeeper); Reset truncates back to it, dropping
	// whatever probes, checkers or traffic layers the previous cell added.
	baseTickers int

	nacks       sim.DueHeap[nackEntry]
	nackPending map[uint64]bool

	resetCycle uint64

	// Sharded-tick state (see shard.go). shards is the effective shard
	// count (1 = serial); shardOf maps node to shard; group is the
	// persistent worker set; inBuckets holds each shard's inbound
	// boundary buckets ([0] fed by the lower neighbor band, [1] by the
	// upper), committed by the owning shard at the head of its parallel
	// pass; journals stages the per-shard cross-shard effects of one
	// parallel phase; drainHooks run at the end of each drain (the CMP
	// substrate registers one); inParallel is true exactly while the
	// worker group is inside a compute phase — shared-state mutators
	// (NACK scheduling, ACK clears, create hooks) consult it to decide
	// between acting inline and journaling; timing/btally are the opt-in
	// barrier wall-time tallies.
	shards     int
	shardOf    []int
	bands      []Band
	group      *sim.ShardGroup
	inBuckets  [][2]*link.StagedBucket
	journals   [][]shardEffect
	drainHooks []func(now uint64)
	inParallel bool
	timing     bool
	btally     barrierTally

	// Fault-injection state (see fault.go). deadLinks records the
	// directed halves of killed links; deadNodes the frozen routers.
	// Lazily allocated — nil until the first fault — and cleared by
	// Reset (the routers' own Reset clears their port masks).
	deadLinks map[faultEdge]bool
	deadNodes []bool
	haveFault bool
}

// withDefaults returns cfg with the machine configuration filled in:
// config.Default() when cfg leaves it unset.
func (cfg Config) withDefaults() Config {
	if cfg.System.Mesh.Width == 0 {
		cfg.System = config.Default()
	}
	return cfg
}

// SameNetwork reports whether networks built for a and b differ only in
// their seed, so that Reset may rewind one into the other: a and b with
// defaults filled and Seed cleared are deeply equal.
func SameNetwork(a, b Config) bool {
	if a.Kind != b.Kind {
		// Most candidates of a batch's lookups; decided without the
		// allocations of filling defaults and DeepEqual.
		return false
	}
	// Two unset machines both read config.Default(): fill them only when
	// one is set.
	if a.System.Mesh.Width != 0 || b.System.Mesh.Width != 0 {
		a, b = a.withDefaults(), b.withDefaults()
	}
	a.Seed, b.Seed = 0, 0
	return reflect.DeepEqual(a, b)
}

// New builds a network. It panics on an invalid system configuration
// (construction is programmer-facing; experiments validate configs first).
func New(cfg Config) *Network {
	cfg = cfg.withDefaults()
	if err := cfg.System.Validate(); err != nil {
		panic(err)
	}

	n := &Network{
		cfg:         cfg,
		mesh:        cfg.System.Mesh,
		kernel:      sim.NewKernel(),
		source:      sim.NewSource(cfg.Seed),
		arena:       flit.NewArena(),
		nackPending: make(map[uint64]bool),
	}
	n.build()
	n.baseTickers = n.kernel.Mark()
	return n
}

func (n *Network) build() {
	sys := n.cfg.System
	nodes := n.mesh.Nodes()
	n.wires = make([]router.Wires, nodes)
	wires := n.wires
	n.initShards()

	dataLat := sys.LinkLatency + 1 // switch traversal folded into the link
	sideLat := sys.LinkLatency

	// Shared route state and the per-node in-flight slab (see the field
	// comments).
	n.tables = n.mesh.NewTables()
	n.inbox = make([][3]int32, nodes)

	// Create one set of channels per directed edge, carved from three
	// contiguous pipe slabs in wiring order (ascending node = band-major
	// for the sharded tick). Pipes whose endpoints land in different
	// shards go into staged-send mode: their sends park sender-side
	// during the parallel phase and commit in the drain (see shard.go);
	// stagePipes collects them in fixed drain order.
	edges := 0
	for node := topology.NodeID(0); node < topology.NodeID(nodes); node++ {
		for d := topology.Dir(0); d < topology.NumDirs; d++ {
			if _, ok := n.mesh.Neighbor(node, d); ok {
				edges++
			}
		}
	}
	dataSlab := link.NewSlab[*flit.Flit](edges, dataLat)
	creditSlab := link.NewSlab[link.Credit](edges, sideLat)
	ctrlSlab := link.NewSlab[link.Ctrl](edges, sideLat)
	for node := topology.NodeID(0); node < topology.NodeID(nodes); node++ {
		for d := topology.Dir(0); d < topology.NumDirs; d++ {
			nb, ok := n.mesh.Neighbor(node, d)
			if !ok {
				continue
			}
			data := dataSlab.New()
			credit := creditSlab.New()
			ctrl := ctrlSlab.New()
			n.links = append(n.links, data)

			// Sender side at node, direction d.
			wires[node].Ports[d].Out = data
			wires[node].Ports[d].CreditIn = credit
			wires[node].Ports[d].CtrlOut = ctrl
			// Receiver side at the neighbor, on the opposite port.
			op := d.Opposite()
			wires[nb].Ports[op].In = data
			wires[nb].Ports[op].CreditOut = credit
			wires[nb].Ports[op].CtrlIn = ctrl

			n.stagePipes(node, nb, data, credit, ctrl)
		}
	}

	// One contiguous router bank per kind, carved in ascending node
	// order below — band-major for the sharded tick's row bands, so each
	// shard's phase-A sweep walks a private contiguous range.
	switch n.cfg.Kind {
	case Backpressured, BackpressuredIdealBypass:
		n.vcSlab = vcrouter.NewSlab(nodes, sys.Baseline)
	case Bless:
		n.deflSlab = deflect.NewSlab(nodes)
	case BlessDrop:
		n.dropSlab = deflect.NewDropSlab(nodes)
	case AFC, AFCAlwaysBuffered:
		n.coreSlab = core.NewSlab(nodes, sys.AFC, sys.LinkLatency)
	}

	n.nis = make([]*ni.NI, nodes)
	n.meters = make([]*energy.Meter, nodes)
	n.routers = make([]router.Router, nodes)
	// NIs live in one contiguous slab carved in node order: one
	// allocation, and Drained and Counters, which walk every NI, and
	// each shard's band of routers, which uses its own nodes' NIs, read
	// memory sequentially instead of chasing per-node heap objects.
	niSlab := ni.NewSlab(nodes)
	for node := topology.NodeID(0); node < topology.NodeID(nodes); node++ {
		n.nis[node] = niSlab.New(node)
		n.nis[node].SetArena(n.arena)
		if n.shards > 1 {
			// Packetize and recycle go through the shard's arena
			// magazine. Create hooks (trace recording) write cross-shard
			// state, so while a parallel phase is running the NI journals
			// the packet shard-locally; the drain replays it in serial
			// node order.
			sh := n.shardOf[node]
			nd := node
			n.nis[node].SetArenaShard(n.arena.Shard(sh))
			n.nis[node].SetCreateDefer(&n.inParallel, func(p flit.Packet) {
				n.journals[sh] = append(n.journals[sh], shardEffect{kind: effCreate, node: nd, packet: p})
			})
		}
		var meter *energy.Meter
		if n.cfg.MeterEnergy {
			meter = n.newMeter()
		}
		n.meters[node] = meter
		// Each inbound pipe tallies into the node's inbox slot, in its
		// class column.
		wires[node].Tally(&n.inbox[node])
		n.routers[node] = n.newRouter(node, wires[node], &n.inbox[node], meter)
	}
	// One bank entry + the NACK housekeeper + a handful of AddTicker
	// clients (generator or CMP, probe, checker, observer).
	n.kernel.Reserve(8)
	n.registerRouterBank()
	n.kernel.Register(&houseKeeper{n: n})
}

func (n *Network) newMeter() *energy.Meter {
	k := n.cfg.Kind
	slots := 0
	dynBuf := true
	switch k {
	case Backpressured:
		slots = n.cfg.System.Baseline.BufferSlotsPerPort()
	case BackpressuredIdealBypass:
		slots = n.cfg.System.Baseline.BufferSlotsPerPort()
		dynBuf = false
	case AFC, AFCAlwaysBuffered:
		slots = n.cfg.System.AFC.BufferSlotsPerPort()
	}
	return energy.NewMeter(energy.DefaultParams(), k.FlitWidthBits(), slots, topology.NumPorts, dynBuf)
}

func (n *Network) newRouter(node topology.NodeID, w router.Wires, inbox *[3]int32, meter *energy.Meter) router.Router {
	sys := n.cfg.System
	nif := n.nis[node]
	switch n.cfg.Kind {
	case Backpressured, BackpressuredIdealBypass:
		return n.vcSlab.New(n.tables, node, sys.Baseline, sys.EjectWidth, w, inbox, nif, nif, meter)
	case Bless:
		return n.deflSlab.New(n.tables, node, n.cfg.Policy, sys.EjectWidth, n.source.Stream(), w, inbox, nif, nif, meter)
	case BlessDrop:
		nif.SetRetain(true)
		// ACK the source on delivery so it stops retransmitting; the
		// paper's drop designs carry ACKs on the dedicated NACK fabric.
		// During a sharded parallel phase the clear targets another
		// shard's NI, so it is journaled and replayed in the drain.
		nif.SetAckHook(func(_ uint64, d ni.Delivered) {
			if n.inParallel {
				sh := n.shardOf[node]
				n.journals[sh] = append(n.journals[sh], shardEffect{kind: effAck, src: d.Src, pkt: d.ID})
				return
			}
			n.nis[d.Src].ClearRetained(d.ID)
		})
		dr := n.dropSlab.New(n.tables, node, sys.EjectWidth, n.source.Stream(), w, inbox, nif, nif, meter,
			&nodeNacker{net: n, node: node})
		if n.shards > 1 {
			// Drop retirement recycles through the shard's arena magazine.
			dr.SetArenaShard(n.arena.Shard(n.shardOf[node]))
		}
		return dr
	case AFC:
		return n.coreSlab.New(n.tables, node, sys.AFC, sys.LinkLatency, sys.EjectWidth, n.source.Stream(), w, inbox, nif, nif, meter,
			core.Options{Policy: n.cfg.Policy, MisrouteThreshold: n.cfg.MisrouteThreshold})
	case AFCAlwaysBuffered:
		return n.coreSlab.New(n.tables, node, sys.AFC, sys.LinkLatency, sys.EjectWidth, n.source.Stream(), w, inbox, nif, nif, meter,
			core.Options{AlwaysBuffered: true, Policy: n.cfg.Policy})
	}
	panic(fmt.Sprintf("network: unknown kind %v", n.cfg.Kind))
}

// Arena returns the network's flit arena. Tests use it as the leak
// oracle: a drained network must have zero live flits.
func (n *Network) Arena() *flit.Arena { return n.arena }

// Reset rewinds the network to the state New(cfg) would have produced,
// reusing every buffer, map, ring and histogram already sized by the
// previous run. cfg may differ from the build configuration only in
// Seed (SameNetwork); any other difference makes reuse unsound (routers,
// meters and banks bake the rest of the configuration in at
// construction) and Reset reports false without touching anything,
// telling the caller to build fresh. Tickers registered after
// construction (probes, checkers, traffic layers) are dropped and must
// be re-registered, in the same order as on a fresh build, for stream
// numbering to line up.
func (n *Network) Reset(cfg Config) bool {
	if !SameNetwork(cfg, n.cfg) {
		return false
	}
	n.cfg = cfg.withDefaults()

	// Any flit still in flight when the previous cell stopped (closed-loop
	// measurement windows end mid-traffic) is force-reclaimed; the
	// generation stamps catch stragglers that somehow resurface.
	n.arena.Reclaim()
	n.source.Reset(cfg.Seed)
	n.kernel.Truncate(n.baseTickers)
	n.kernel.Rewind()

	// Walk each pipe exactly once via its sender-side handle.
	for node := range n.wires {
		for d := topology.Dir(0); d < topology.NumDirs; d++ {
			p := &n.wires[node].Ports[d]
			if p.Out != nil {
				p.Out.Reset()
			}
			if p.CreditIn != nil {
				p.CreditIn.Reset()
			}
			if p.CtrlOut != nil {
				p.CtrlOut.Reset()
			}
		}
	}
	for _, nif := range n.nis {
		nif.Reset()
	}
	for _, m := range n.meters {
		if m != nil {
			m.Reset()
		}
	}
	// Routers reset in node order, consuming one stream number each for
	// the kinds whose constructors do — the same numbering a fresh build
	// would have produced.
	for _, r := range n.routers {
		switch rt := r.(type) {
		case *vcrouter.Router:
			rt.Reset()
		case *deflect.Router:
			rt.Reset(n.source.StreamSeed())
		case *deflect.DropRouter:
			rt.Reset(n.source.StreamSeed())
		case *core.Router:
			rt.Reset(n.source.StreamSeed())
		}
	}
	n.nacks = n.nacks[:0]
	clear(n.nackPending)
	n.resetCycle = 0
	// Sharded-tick state: journals are drained every cycle and hooks are
	// re-registered by whoever reattaches (like tickers), but clear both
	// so a cell abandoned mid-cycle cannot leak effects into the next.
	// Boundary buckets likewise: the pipes' own Reset above discarded any
	// parked values. The barrier tally deliberately survives:
	// it is lifetime telemetry, not simulation state, and the obs layer
	// folds it into the run manifest once at the end of a sweep — zeroing
	// here would drop every cell but the last from a reused network.
	for i := range n.journals {
		n.journals[i] = n.journals[i][:0]
	}
	for i := range n.inBuckets {
		for _, b := range n.inBuckets[i] {
			if b != nil {
				b.Reset()
			}
		}
	}
	n.drainHooks = n.drainHooks[:0]
	n.inParallel = false
	clear(n.deadLinks)
	clear(n.deadNodes)
	n.haveFault = false
	return true
}

// ReseedStream rewinds an existing random stream to the state the next
// RandStream call would mint, consuming the same stream number. Reattach
// paths use it to restore generator and workload randomness without
// allocating fresh generators.
func (n *Network) ReseedStream(r *rand.Rand) { n.source.Reseed(r) }

// RandStream mints a deterministic random stream rooted at the network's
// seed, for traffic generators and workload models.
func (n *Network) RandStream() *rand.Rand { return n.source.Stream() }

// AddTicker registers an additional per-cycle component (traffic
// generator, CMP model). It runs after the routers each cycle.
func (n *Network) AddTicker(t sim.Ticker) { n.kernel.Register(t) }

// Wires returns the link endpoints of node. Routers own the wires;
// the invariant checker reads link state through this accessor.
func (n *Network) Wires(node topology.NodeID) router.Wires { return n.wires[node] }

// Inbox returns node's in-flight tally, by router.Wires.Tally's columns:
// what the router reads to skip receive scans and to decide quiescence.
// The invariant checker reconciles it against the inbound pipes.
func (n *Network) Inbox(node topology.NodeID) [3]int32 { return n.inbox[node] }

// Mesh returns the network's mesh.
func (n *Network) Mesh() topology.Mesh { return n.mesh }

// Config returns the network's configuration.
func (n *Network) Config() Config { return n.cfg }

// Now returns the current cycle.
func (n *Network) Now() uint64 { return n.kernel.Now() }

// Step advances one cycle.
func (n *Network) Step() { n.kernel.Step() }

// Run advances c cycles.
func (n *Network) Run(c uint64) { n.kernel.Run(c) }

// RunUntil steps until pred holds or limit cycles pass.
func (n *Network) RunUntil(pred func() bool, limit uint64) bool {
	return n.kernel.RunUntil(pred, limit)
}

// NI returns the network interface of node.
func (n *Network) NI(node topology.NodeID) *ni.NI { return n.nis[node] }

// Router returns the router of node (callers type-assert for
// kind-specific stats).
func (n *Network) Router(node topology.NodeID) router.Router { return n.routers[node] }

// Nodes returns the node count.
func (n *Network) Nodes() int { return n.mesh.Nodes() }

// nodeNacker adapts the drop router's NACK port to scheduled source
// retransmission. The NACK flight time models the paper's dedicated,
// guaranteed-delivery NACK fabric: proportional to the drop site's
// distance from the source.
type nodeNacker struct {
	net  *Network
	node topology.NodeID
}

// Nack implements deflect.Nacker. The drop site recycles the flit right
// after this call, so the staged path captures the fields it needs by
// value; scheduling itself touches network-global state (pending set,
// source-NI epoch, NACK heap) and therefore runs inline only outside a
// parallel phase, journaled otherwise.
func (nk *nodeNacker) Nack(now uint64, f *flit.Flit) {
	n := nk.net
	if n.inParallel {
		sh := n.shardOf[nk.node]
		n.journals[sh] = append(n.journals[sh], shardEffect{
			kind: effNack, node: nk.node, src: f.Src, pkt: f.PacketID, retx: f.Retransmits,
		})
		return
	}
	n.scheduleNack(now, nk.node, f.Src, f.PacketID, f.Retransmits)
}

// scheduleNack schedules a source retransmission for a flit dropped at
// node, unless a retransmission is already pending or the NACK is stale.
func (n *Network) scheduleNack(now uint64, node, src topology.NodeID, pkt uint64, retransmits int) {
	if n.nackPending[pkt] {
		return // a retransmission of this packet is already scheduled
	}
	epoch := n.nis[src].Epoch(pkt)
	if retransmits != epoch {
		return // stale NACK from a superseded or delivered copy
	}
	// NACK flight time back to the source plus exponential backoff per
	// retransmission: without backoff, synchronized retransmitted copies
	// contend forever (congestion livelock).
	dist := n.mesh.Distance(node, src)
	delay := uint64((dist + 1) * (n.cfg.System.LinkLatency + 2))
	if epoch > 8 {
		epoch = 8
	}
	delay <<= uint(epoch)
	n.nackPending[pkt] = true
	n.nacks.Push(now+delay, nackEntry{src: src, pkt: pkt})
}

// nackEntry is a scheduled source retransmission of packet pkt.
type nackEntry struct {
	src topology.NodeID
	pkt uint64
}

// MarshalJSON encodes the kind as its string name, so exported experiment
// results are self-describing.
func (k Kind) MarshalJSON() ([]byte, error) {
	return []byte(`"` + k.String() + `"`), nil
}

// UnmarshalJSON decodes a kind from its string name.
func (k *Kind) UnmarshalJSON(b []byte) error {
	s := strings.Trim(string(b), `"`)
	for i := Kind(0); i < NumKinds; i++ {
		if i.String() == s {
			*k = i
			return nil
		}
	}
	return fmt.Errorf("network: unknown kind %q", s)
}
